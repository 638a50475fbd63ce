"""Delaunay decompositions of lattices under positive-definite rational
quadratic forms, and membership in the closed second-Voronoi cones.

The subdivision is Voronoi's closed form for rank r <= 3 (Conway and
Sloane, Proc. R. Soc. A 436, 1992): every such lattice has an obtuse
superbase v_0 ... v_r, found by Selling flips, and its Delaunay cells are
the permutation simplices 0, v_s0, v_s0 + v_s1, ..., merged where a
Selling parameter -v_i^T Q v_j is zero.  Each cell is certified by its
circumellipsoid, enumerated exactly in integers: the cell is every
lattice point on it, and no lattice point may lie inside.  The window
does not enter the computation; the paving keeps it as a label.

A QuadraticForm keeps its pavings, one per (period basis, window, shift),
and a paving, as cached properties, its walls, point locator and
second-Voronoi cone; a DelaunayPaving reads the last two off its superbase.
Both compute on int or Fraction rows; numpy is imported only to build
their public arrays, ``matrix`` and ``period_basis``, on first access.

The second-Voronoi cone of a Delaunay paving is read off the same
superbase: for r <= 3 it is the face of the principal cone {p_ij >= 0}
that has Q in its relative interior (Voronoi 1908; Conway and Sloane
1992), one integer row per Selling parameter, so it is simplicial.  A
hand-built paving has no superbase; its rows come from its cells and
walls (Alexeev 2002) and may repeat a facet.  See secondary_cone.

Point location on a DelaunayPaving is a table lookup by face type: in
superbase coordinates its cells are unions of closed simplices of the
Kuhn (Freudenthal) triangulation of R^r, and one scan per class of
points answers the whole class (PeriodicPaving.locate_cleared).
Hand-built pavings have no superbase and keep the scan.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import ceil, floor, isqrt, lcm
from operator import add, mul

from . import _geometry as geom
from .errors import (Degenerate, InvalidPaving, NotPositiveDefinite,
                     RankMismatch, TooLarge, WindowTooSmall)
from .exact_linalg import (LatticeCoordinates, ObjectMatrix, Record, as_frac,
                           clear_denominators, coset_representatives,
                           independent_rows, is_positive_definite,
                           is_symmetric, read_matrix, row_reduce)


class QuadraticForm(Record):
    """A symmetric rational matrix; Q(x) = x^T M x.

    The form computes on the Fraction rows of the matrix given, read
    once (``_matrix_rows``).  ``matrix`` is a read-only object array of
    them (assigning into it raises ValueError), built on first access.
    ``+`` and ``scaled`` build new forms.  The form keeps, in private
    attributes freed with it, whether it is positive definite, once
    asked, and every Delaunay paving delaunay_subdivision has computed
    from it.
    """

    matrix: object = ObjectMatrix(as_frac, writeable=False)

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", matrix)
        if any(len(row) != self.rank for row in self._matrix_rows):
            raise ValueError("quadratic form matrix must be square")
        if not is_symmetric(self._matrix_rows):
            raise ValueError("quadratic form matrix must be symmetric")
        self.__dict__["_pavings"] = {}

    @property
    def rank(self) -> int:
        return len(self._matrix_rows)

    def value(self, x) -> Fraction:
        v = [Fraction(t) for t in x]
        return geom.bilinear(self._matrix_rows, v, v)

    def cleared(self):
        """(m, scale): the integer rows m of scale * M, for scale the least
        common denominator of the entries of M."""
        rows = self._matrix_rows
        scale = lcm(*(x.denominator for row in rows for x in row))
        return [[x.numerator * (scale // x.denominator) for x in row]
                for row in rows], scale

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion, run on the first call only."""
        return self._positive_definite

    @cached_property
    def _positive_definite(self):
        return is_positive_definite(self._matrix_rows)

    def __add__(self, other):
        return QuadraticForm([list(map(add, a, b)) for a, b in zip(
            self._matrix_rows, other._matrix_rows, strict=True)])

    def scaled(self, c) -> "QuadraticForm":
        c = Fraction(c)
        return QuadraticForm([[c * x for x in row]
                              for row in self._matrix_rows])


def _as_int_if_possible(x):
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


class LatticePolytope(Record):
    """Vertex set of a cell, stored sorted for canonical comparison."""

    vertices: tuple[tuple, ...]

    def __init__(self, vertices):
        vs = tuple(sorted(tuple(map(_as_int_if_possible, v))
                          for v in vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices in cell %r" % (vs,))
        self.__dict__["vertices"] = vs

    def translated(self, t) -> "LatticePolytope":
        return LatticePolytope(tuple(geom.vadd(v, t) for v in self.vertices))

    def facets(self):
        return self._facets

    @cached_property
    def _facets(self):
        return geom.polytope_facets(self.vertices)

    def volume(self) -> Fraction:
        return geom.polytope_volume(self.vertices)


class PeriodicPaving:
    """A periodic polytopal subdivision, stored by cell-orbit reps.

    period_basis columns generate the translation lattice; ``cells``
    holds one canonical representative per orbit of maximal cells.  The
    paving computes on the int rows of the basis given, read once
    (``lattice.basis``); ``period_basis`` is an object array of them,
    built on first access.
    """

    period_basis = ObjectMatrix()

    def __init__(self, rank, period_basis, cells, window):
        self.rank = int(rank)
        self.period_basis = period_basis
        rows = self._period_basis_rows
        if len(rows) != self.rank or any(len(row) != self.rank
                                         for row in rows):
            raise InvalidPaving("period basis must be square of the rank")
        try:
            self.lattice = LatticeCoordinates(rows)
        except Degenerate:
            raise InvalidPaving("period basis must be nondegenerate") \
                from None
        self.window = int(window)
        self.cells: list[LatticePolytope] = sorted(
            (c if isinstance(c, LatticePolytope) else LatticePolytope(tuple(c))
             for c in cells),
            key=lambda c: c.vertices)

    # -- canonical translates -------------------------------------------

    def canonical_cell(self, vertices):
        vs = sorted(tuple(v) for v in vertices)
        t = self.lattice.shift(vs[0])
        return LatticePolytope(tuple(geom.vsub(v, t) for v in vs))

    # -- structure ------------------------------------------------------

    def is_simplicial(self) -> bool:
        return all(len(c.vertices) == self.rank + 1 for c in self.cells)

    def cell_facets(self, idx):
        return self.cells[idx].facets()

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
        return self._walls[0]

    @cached_property
    def _walls(self):
        """(walls(), each wall's primitive normal out of its first cell)."""
        walls, normals = {}, {}
        for idx in range(len(self.cells)):
            for fverts, n, _c in self.cell_facets(idx):
                t = self.lattice.shift(sorted(fverts)[0])
                key = tuple(sorted(geom.vsub(v, t) for v in fverts))
                shift = tuple(-x for x in t)
                walls.setdefault(key, []).append((idx, shift))
                normals.setdefault(key, n)
        for key, inc in walls.items():
            if len(inc) != 2:
                raise InvalidPaving(
                    "wall %r has %d incident cells" % (key, len(inc)))
        return walls, normals

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

        The answer is defined by a scan.  The point is reduced by a
        lattice vector t0 into the half-open fundamental parallelepiped P
        of the period basis B, then tested against the closed translates
        cells[idx] + B k, cell-major and then in lexicographic order of
        k; the first one containing it wins (shift = B k + t0), which
        fixes the tie-break for points on walls and vertices.  The
        translates come from a locator built lazily once per paving: it
        keeps, in that order, exactly those whose period-coordinate
        bounding box meets the closed P, each with its facet
        inequalities as integer rows.  Every translate containing a
        point of P is kept, however long the cell, so the first match is
        the one a scan over all k finds.  The rows are tested in
        integers on the reduced numerators.

        A DelaunayPaving answers from a table instead.  The point's
        superbase coordinates y = S^-1 (x - s), cleared to integer
        numerators over one denominator, give f = floor(y) and the
        fractional numerators g.  The key is the face type (which g_i
        are 0 and the sign of each g_i - g_j, i < j: the rank of each
        g_i among 0 and the g's) and the coset of f modulo M = S^-1 B,
        read as the residues of n B^-1 S f modulo n (n B^-1 the
        lattice's integer rows); the quotients c give the period B c of
        f.  The first point of a class is scanned and its
        answer is kept less B c; any later point of the class gets that
        answer plus its own B c.  The face type and f fix the closed
        Kuhn simplices containing y, hence the cell translates
        containing the point, and f + M c moves them all by B c; the
        scan takes the least (idx, k) among them, and lexicographic
        order is translation-invariant, so the answer is the scan's on
        every point, walls and vertices included.  The table holds at
        most 2^r 3^(r(r-1)/2) |det B| keys.
        """
        t0 = self.lattice.shift_cleared(num, den)
        local = tuple(x - den * t for x, t in zip(num, t0))
        for idx, bk, rows in self._locator:
            if all(geom.dot(a, local) <= b * den for a, b in rows):
                return idx, geom.vadd(bk, t0)
        return None

    @cached_property
    def _locator(self):
        """[(idx, B k, rows)] for locate_cleared; rows are integer
        (a, b) with <a, x> <= b exactly on cells[idx] + B k."""
        den = self.lattice.den
        locator = []
        for idx, cell in enumerate(self.cells):
            # per period coordinate, the k_i that let the translate's
            # bounding box meet [0, 1]; coordinates are scaled by den
            ks = []
            for row in self.lattice.inv_rows:
                coords = [geom.dot(row, v) for v in cell.vertices]
                lo, hi = min(coords), max(coords)
                ks.append(range(-(hi // den), (den - lo) // den + 1))
            for k in product(*ks):
                bk = self.lattice.vector(k)
                rows = []
                for _f, n, c in cell.facets():
                    b = c + geom.dot(n, bk)
                    rows.append((tuple(x * b.denominator for x in n),
                                 b.numerator))
                locator.append((idx, bk, tuple(rows)))
        return locator

    @cached_property
    def _cone(self):
        """secondary_cone's rows from the cells and walls."""
        excess = [_excess_row(c.vertices, self.rank) for c in self.cells]
        equalities, inequalities = set(), set()
        for cell, row in zip(self.cells, excess):
            vs = cell.vertices
            equalities.update(geom.primitive(e) for e in map(row, vs)
                              if any(e))    # zero just on the affine base
            box = [range(ceil(min(xs) - x0), floor(max(xs) - x0) + 1)
                   for xs, x0 in zip(zip(*vs), vs[0])]
            for p in (geom.vadd(x, vs[0]) for x in product(*box)):
                if p not in vs and geom.point_in_polytope(p, cell.facets()):
                    inequalities.add(row(p))
        for key, ((ia, sa), (ib, sb)) in self.walls().items():
            far = next(geom.vadd(v, sb) for v in self.cells[ib].vertices
                       if geom.vadd(v, sb) not in key)
            inequalities.add(excess[ia](geom.vsub(far, sa)))
        return tuple(sorted(equalities)), tuple(sorted(inequalities))

    def __eq__(self, other):
        if not isinstance(other, PeriodicPaving):
            return NotImplemented
        return (self.rank == other.rank
                and self.lattice.basis == other.lattice.basis
                and [c.vertices for c in self.cells]
                == [c.vertices for c in other.cells])

    def __repr__(self):
        return "PeriodicPaving(rank=%d, cells=%d, window=%d)" % (
            self.rank, len(self.cells), self.window)


# ---------------------------------------------------------------------------
# Delaunay in closed form from an obtuse superbase
# ---------------------------------------------------------------------------

class DelaunayPaving(PeriodicPaving):
    """The paving delaunay_subdivision builds from the integer form m.  It
    keeps ``_superbase`` (v_0 ... v_{r-1} of an obtuse superbase, the
    shift, the Selling parameters) and reads its locator and cone off it."""

    def __init__(self, m, period_basis, window, shift):
        super().__init__(len(m), period_basis, [], window)
        offsets = [geom.vadd(t, shift) for t in
                   coset_representatives(period_basis, "period_basis")]
        basis, selling, cells = _delaunay_cells(m)
        reps = {}
        for cell, t in product(cells, offsets):
            c = self.canonical_cell(geom.vadd(v, t) for v in cell)
            reps[c.vertices] = c
        self.cells = [reps[vs] for vs in sorted(reps)]
        self._superbase = (basis, shift, selling)

    def locate_cleared(self, num, den):
        """PeriodicPaving.locate_cleared, from the face-type table."""
        inv, s_inv, s_den, coset_rows, table = self._faces
        d, pden = den * s_den, self.lattice.den
        # the read path's hottest loop: geom.dot is written out inline
        f, g = [], []
        for row, s in zip(inv, s_inv):
            q, m = divmod(s_den * sum(map(mul, row, num)) - den * s, d)
            f.append(q)
            g.append(m)
        c, res = [], []
        for row in coset_rows:
            q, m = divmod(sum(map(mul, row, f)), pden)
            c.append(q)
            res.append(m)
        levels = sorted({0, *g})    # the face type, as ranks among 0 and g
        key = (tuple([levels.index(x) for x in g]), tuple(res))
        t = [sum(map(mul, row, c)) for row in self.lattice.basis]   # B c
        hit = table.get(key)
        if hit is None:
            hit = super().locate_cleared(num, den)
            if hit is None:
                return None
            hit = table[key] = (hit[0], geom.vsub(hit[1], t))
        return hit[0], geom.vadd(hit[1], t)

    @cached_property
    def _faces(self):
        """(S^-1 rows, S^-1 s numerators, their denominator, the rows
        of n B^-1 S, the table) for the face-type lookup of
        locate_cleared, from the superbase basis S and the shift s.  S
        is unimodular, so its inverse rows are integers over 1."""
        basis, shift, _ = self._superbase
        inv = LatticeCoordinates(list(zip(*basis))).inv_rows
        s_num, s_den = clear_denominators(shift)
        s_inv = tuple(geom.dot(row, s_num) for row in inv)
        coset_rows = tuple(tuple(geom.dot(row, v) for v in basis)
                           for row in self.lattice.inv_rows)
        return inv, s_inv, s_den, coset_rows, {}

    @cached_property
    def _cone(self):
        """secondary_cone's rows from the superbase basis v_0 ... v_{r-1}
        (v_r = -sum v_i) and the Selling parameters over the edges of
        K_{r+1}, in the order of combinations: the row of p_ij(q) =
        -v_i^T q v_j over the q_ab, a <= b, is -v_ia v_ja on the diagonal
        and -(v_ia v_jb + v_ib v_ja) off it."""
        basis, _, selling = self._superbase
        r = self.rank
        vs = list(basis) + [tuple(-sum(col) for col in zip(*basis))]
        equalities, inequalities = [], []
        for (i, j), p in zip(combinations(range(r + 1), 2), selling):
            u, v = vs[i], vs[j]
            row = geom.gcd_reduced(
                [-u[a] * v[a] if a == b else -(u[a] * v[b] + u[b] * v[a])
                 for a in range(r) for b in range(a, r)])
            if p:
                inequalities.append(row)
            else:
                equalities.append(geom.primitive(row))
        return tuple(sorted(equalities)), tuple(sorted(inequalities))


def delaunay_subdivision(q: QuadraticForm, period_basis, window: int,
                         shift=None) -> PeriodicPaving:
    """The Delaunay decomposition of Q, as a DelaunayPaving.

    Voronoi's closed form for rank r <= 3: the cells of an obtuse
    superbase are its r! permutation simplices, merged where a Selling
    parameter is zero, and each cell is every lattice point on the exact
    circumellipsoid of one of them.  An optional rational ``shift``
    moves the lattice (used for cusp models on shifted lattices); a
    period lattice coarser than Z^r splits each orbit into its cosets.

    The window does not change the answer: every window >= 2 gives the
    same cells, and the paving keeps the window as its label.  A window
    below 2 raises WindowTooSmall on the field ``window``, and rank 4 or
    more TooLarge on the field ``q``.

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
    if r > 3:
        raise TooLarge("Delaunay is computed for rank <= 3, not %d" % r,
                       field="q")
    pb = read_matrix(period_basis)
    # an integral shift stays int, so the cells stay on ints
    shift = tuple(_as_int_if_possible(x)
                  for x in ((0,) * r if shift is None else shift))
    if len(shift) != r:
        raise RankMismatch("shift of length %d for a form of rank %d"
                           % (len(shift), r), field="shift")
    key = (tuple(map(tuple, pb)), window, shift)
    if key not in q._pavings:
        q._pavings[key] = DelaunayPaving(q.cleared()[0], pb, window, shift)
    return q._pavings[key]


def _delaunay_cells(m):
    """(basis, selling, cells): v_0 ... v_{r-1} of an obtuse superbase of
    the integer form m, r <= 3, its Selling parameters p_ij = -v_i^T m v_j
    over the edges i < j of K_{r+1} in the order of combinations (with
    v_r = -sum v_i, so p_ir is the i-th row sum of the Gram matrix), and
    one vertex list per Z^r-orbit of its Delaunay cells, some orbits
    listed more than once.

    In the basis v_0 ... v_{r-1} of an obtuse superbase the permutation
    simplices are 0, e_s0, e_s0 + e_s1, ..., one per order s of 0 ... r-1
    (orders that end in v_r give translates of these).  With G the Gram
    matrix of that basis, the circumcentre c of the path p_0 = 0,
    p_{k+1} = p_k + e_{s_k} solves 2 p_k^T G c = G(p_k), so w = 2 G c has
    w_{s_k} = G(p_{k+1}) - G(p_k).  With G^-1 = N / den, the integer rows
    of LatticeCoordinates(G) computed once per form, c = C / d for
    C = N w and d = 2 den.  The squared radius is R = G(d p_0 - C) = G(C),
    and the cell is every y in the box around C / d with G(d y - C) = R.
    A point with G(d y - C) < R would contradict Voronoi's theorem; it
    raises InvalidPaving.
    """
    r = len(m)
    basis = _obtuse_superbase(m)[:r]
    gram = [[geom.bilinear(m, a, b) for b in basis] for a in basis]
    selling = tuple(-gram[i][j] if j < r else sum(gram[i])
                    for i, j in combinations(range(r + 1), 2))
    lat = LatticeCoordinates(gram)
    d = 2 * lat.den
    cells = []
    for order in permutations(range(r)):
        simplex = [tuple(int(i in order[:k]) for i in range(r))
                   for k in range(r + 1)]
        vals = [geom.bilinear(gram, p, p) for p in simplex]
        w = [0] * r
        for k, s in enumerate(order):
            w[s] = vals[k + 1] - vals[k]
        centre = [geom.dot(row, w) for row in lat.inv_rows]
        radius = geom.bilinear(gram, centre, centre)
        cell = []
        for y, dist in _ellipsoid_points(lat, centre, d, radius):
            if dist < radius:
                raise InvalidPaving(
                    "lattice point %r lies inside the circumellipsoid of "
                    "the simplex %r" % (y, simplex))
            cell.append(tuple(geom.dot(y, col) for col in zip(*basis)))
        cells.append(cell)
    return basis, selling, cells


def _ellipsoid_points(lat, centre, d, radius):
    """Yield (y, G(d y - C)) for each integer vector y in the ellipsoid
    G(d y - C) <= R, for the LatticeCoordinates ``lat`` of a positive
    definite integer Gram matrix G (its basis), an integer vector C and
    integers d > 0, R.  The y are those of a box, lexicographically:
    G(z) <= R has |z_i| <= sqrt(R (G^-1)_ii), and (G^-1)_ii is
    lat.inv_rows[i][i] / lat.den."""
    gram = lat.basis
    box = []
    for i, c in enumerate(centre):
        half = isqrt(radius * lat.inv_rows[i][i] // lat.den) + 1
        box.append(range(-((half - c) // d), (c + half) // d + 1))
    for y in product(*box):
        z = [d * x - c for x, c in zip(y, centre)]
        dist = geom.bilinear(gram, z, z)
        if dist <= radius:
            yield y, dist


def _obtuse_superbase(m):
    """v_0 ... v_r with sum 0, any r of them a basis of Z^r, and every
    v_i^T m v_j <= 0 (i != j), for the integer form m, r <= 3.

    The basis is first size-reduced pairwise, so that a skewed form does
    not take one Selling flip per unit of skew (a shear by k would take k).
    Then, from v_0 ... v_{r-1} and v_r = -sum, Selling flips: while some
    v_i^T m v_j > 0, negate v_i and, for r = 3, add the old v_i to the
    other two; for r = 2, the third becomes v_i - v_j.  Each flip lowers
    sum v_i^T m v_i by a positive integer, so the loop ends.
    """
    r = len(m)
    vs = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(r), 2):
            n = geom.bilinear(m, vs[i], vs[j])
            nn = geom.bilinear(m, vs[j], vs[j])
            if 2 * abs(n) > nn:     # then m(v_i - k v_j) < m(v_i)
                k = (2 * n + nn) // (2 * nn)    # the integer nearest n / nn
                vs[i] = geom.vsub(vs[i], geom.scale(vs[j], k))
                changed = True
    vs.append(tuple(-sum(col) for col in zip(*vs)))
    while True:
        pair = next(((i, j) for i, j in combinations(range(r + 1), 2)
                     if geom.bilinear(m, vs[i], vs[j]) > 0), None)
        if pair is None:
            return vs
        i, j = pair
        others = [k for k in range(r + 1) if k not in pair]
        if r == 2:
            vs[others[0]] = geom.vsub(vs[i], vs[j])
        else:
            for k in others:
                vs[k] = geom.vadd(vs[k], vs[i])
        vs[i] = tuple(-x for x in vs[i])


# ---------------------------------------------------------------------------
# empty sphere predicate
# ---------------------------------------------------------------------------

def empty_sphere_check(cell, q: QuadraticForm, window: int) -> bool:
    """Does the cell satisfy the empty-sphere condition for Q?

    True iff some rational center c is Q-equidistant from all cell
    vertices and strictly closer to them than to every other lattice
    point.  For full-dimensional cells the center is unique; for
    lower-dimensional cells the minimal-radius center (constrained to
    the affine hull) is the candidate tested.  Every lattice point of
    the ellipsoid is enumerated exactly, in integers: Q scaled to the
    integer form m, c cleared to C / d and R = m(d v_0 - C).  The window
    is unused; the answer is the same at every window.
    """
    if not q.is_positive_definite():
        raise NotPositiveDefinite("empty-sphere check needs Q > 0")
    verts = cell.vertices if isinstance(cell, LatticePolytope) else \
        tuple(tuple(v) for v in cell)
    center = _equidistant_center(verts, q)
    if center is None:
        return False
    m = q.cleared()[0]
    num, d = clear_denominators(center)
    z0 = [d * x - c for x, c in zip(verts[0], num)]
    return all(y in verts for y, _ in _ellipsoid_points(
        LatticeCoordinates(m), num, d, geom.bilinear(m, z0, z0)))


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
    system = [[2 * geom.bilinear(q._matrix_rows, dv, bk) for bk in basis]
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
# second Voronoi cones as linear rows in Q
# ---------------------------------------------------------------------------

def secondary_cone(paving: PeriodicPaving):
    """The closed cone C(paving) as (equalities, inequalities), sorted
    primitive integer rows e with <e, q> = 0 or >= 0 on the entries
    q_ij, i <= j, of Q(x) = sum q_ii x_i^2 + 2 sum_{i<j} q_ij x_i x_j.
    The rows are a cached property of the paving, ``_cone``.

    A Delaunay paving reads them off its obtuse superbase v_0 ... v_r
    (DelaunayPaving).  For r <= 3, C(Del(Q)) is the face of the principal
    cone {p_ij >= 0} of Q's superbase that has Q in its relative
    interior (Voronoi, J. reine angew. Math. 134, 1908; Conway and
    Sloane, Proc. R. Soc. A 436, 1992): one row p_ij(q) = -v_i^T q v_j
    per edge of K_{r+1}, an equality where Q's Selling parameter is zero
    and an inequality where it is positive.  Q(sum y_i v_i) =
    sum p_ij (y_i - y_j)^2, so the rows are a basis of the forms: one
    inequality per facet, and the cone is simplicial.

    A hand-built paving has no superbase and gets the rows of its cells
    (_excess_row): the interpolation of Q is affine on each cell (an
    equality per vertex off its affine base), bends non-negatively
    across each wall orbit (an inequality at a far vertex of one cell)
    and is <= Q at each point of b_0 + Z^r in a cell that is not a
    vertex, b_0 its first vertex (Alexeev, Annals 155, 2002).  These
    rows cut out the same cone, but an inequality may be redundant."""
    return paving._cone


def _excess_row(vertices, r):
    """p -> the primitive row of d (Q(p) - l(p)), l affine and equal to Q
    at b_0 = vertices[0] and at b_0 + the greedy basis of the v - b_0
    (independent_rows: the columns of B, d B^-1 integral);
    translation-invariant.  Flat cells refused."""
    b0 = vertices[0]
    diffs = [geom.vsub(v, b0) for v in vertices[1:]]
    cols = [diffs[i] for i in independent_rows(diffs)]
    if len(cols) < r:
        raise InvalidPaving("cell %r is not full-dimensional" % (vertices,))
    lat = LatticeCoordinates(list(zip(*cols)))
    # Q(x) is the sum of w x_i x_j q_ij over these (i, j, w)
    pairs = [(i, j, 1 if i == j else 2) for i in range(r) for j in range(i, r)]
    mons = [[d[i] * d[j] * w for d in cols] for i, j, w in pairs]

    def row(p):
        x = geom.vsub(p, b0)
        mu = [geom.dot(a, x) for a in lat.inv_rows]     # d B^-1 x
        out = [lat.den * x[i] * x[j] * w - geom.dot(mu, m)
               for (i, j, w), m in zip(pairs, mons)]
        return geom.gcd_reduced(clear_denominators(out)[0])
    return row


def voronoi_cone_contains(paving: PeriodicPaving, q: QuadraticForm) -> bool:
    """Is q in the closed cone C(paving), i.e., for q semidefinite, is
    Delaunay(q) equal to or coarser than the paving?  One sign check
    against secondary_cone(paving); nothing is paved.  Other forms fail:
    they fall below any convex interpolation along some lattice ray."""
    if not isinstance(paving, PeriodicPaving) or not paving.cells:
        raise InvalidPaving("need a nonempty periodic paving", field="paving")
    if q.rank != paving.rank:
        raise InvalidPaving("rank mismatch between form and paving", field="q")
    equalities, inequalities = secondary_cone(paving)
    x = clear_denominators([t for i, row in enumerate(q._matrix_rows)
                            for t in row[i:]])[0]     # the q_ij, i <= j
    return (all(geom.dot(e, x) == 0 for e in equalities)
            and all(geom.dot(e, x) >= 0 for e in inequalities))
