"""Periodic piecewise-affine functions on lattices.

Bending parameters across walls, convexity against a toric monoid of
payloads, the quadratic + periodic splitting of quasiperiodic
functions, interpolation over periodic triangulations, the linear
section Q -> interpolation of 1/2 Q, exact lattice minima and the
discrete Legendre transform.  Everything is exact rational arithmetic.

A PwAffineFunction is evaluated in cleared-denominator integers: one
integer table per function holds its coefficients over a common
denominator D, a point is cleared once to integer numerators over one
denominator and located on them, and each value is a single Fraction
built from integer sums (evaluate_numerators gives the integers, so a
sum of values can build one Fraction).  The shifted affine piece on a
translated cell has one definition, on that table, shared by evaluation
and by affine_on_cell (hence bending parameters and affine regions).

Matrices are read once into Fraction or int rows; numpy is imported
only to build the public arrays (quasi_bilinear, and the bilinear form
and period basis of a QuasiperiodicDecomposition) on first access.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import add, itemgetter

from . import _geometry as geom
from .errors import (Degenerate, InvalidPaving, MissingVertexValue,
                     NonMatchingFaces, NotConvex, NotQuasiperiodic,
                     NotSimplicial, RankMismatch, TooLarge, Unbounded)
from .exact_linalg import (MAX_WINDOW_POINTS, LatticeCoordinates,
                           ObjectMatrix, Record, _is_vector, _object_matrix,
                           as_frac, check_window_points, clear_denominators,
                           coset_representatives, is_positive_definite, rank,
                           read_matrix, row_reduce, transpose)
from .quadform_delaunay import (PeriodicPaving, QuadraticForm,
                                _ellipsoid_points, _obtuse_superbase,
                                delaunay_subdivision)


def _as_rows(lin, k, r):
    """Normalize a linear part to a k-tuple of length-r rows."""
    lin = list(lin)
    if lin and not _is_vector(lin[0]):
        lin = [lin]
    out = tuple(tuple(map(as_frac, row)) for row in lin)
    if len(out) != k or any(len(row) != r for row in out):
        raise ValueError("linear part must be %d row(s) of length %d"
                         % (k, r))
    return out


def _as_vec(const, k):
    if not _is_vector(const):
        const = [const]
    out = tuple(map(as_frac, const))
    if len(out) != k:
        raise ValueError("constant must have length %d" % k)
    return out


class PwAffineFunction:
    """A piecewise affine function on R^r, periodic paving + one affine
    piece per representative cell, with quasiperiodicity data.

    Payload values live in Q^k; for k = 1 evaluation returns a plain
    Fraction.  Quasiperiodicity: for a period lattice vector m,

        f(x + m) - f(x) = sum_i e_i (m^T B_i x + 1/2 m^T B_i m + 1/2 L_i m)

    with B_i the symmetric quadratic matrices and L_i the linear rows.

    The data is immutable: ``cell_affines`` and ``quasi_linear`` are
    tuples and ``quasi_bilinear`` a tuple of read-only object arrays of
    the matrices given, built on first access from their Fraction rows
    (``_quasi_bilinear_rows``), on which the function computes.
    Evaluation runs on one integer table built from it:
    D, the least common denominator of every coefficient and of every
    entry of B_i / 2 and L_i / 2; per payload i the integer rows of
    D B_i and D L_i / 2; per cell the integers D lin and D const.  A
    value at a point num / den is one Fraction over D den.
    """

    def __init__(self, paving: PeriodicPaving, cell_affines,
                 quasi_bilinear, quasi_linear, payload_rank: int = 1):
        self.paving = paving
        self.rank = paving.rank
        self.payload_rank = int(payload_rank)
        k, r = self.payload_rank, self.rank
        if len(cell_affines) != len(paving.cells):
            raise ValueError("one affine piece per representative cell")
        self.cell_affines = tuple((_as_rows(lin, k, r), _as_vec(const, k))
                                  for lin, const in cell_affines)
        bils = tuple(tuple(map(tuple, read_matrix(b, as_frac)))
                     for b in quasi_bilinear)
        if len(bils) != k or any(len(b) != r or any(len(row) != r
                                                    for row in b)
                                 for b in bils):
            raise ValueError("quasi_bilinear must be %d matrices of size %d"
                             % (k, r))
        self._quasi_bilinear_rows = bils
        self.quasi_linear = _as_rows(quasi_linear, k, r)

        dens = [x.denominator for lin, const in self.cell_affines
                for row in lin + (const,) for x in row]
        # x / 2 has the denominator of x, doubled if its numerator is odd
        dens += [x.denominator << (x.numerator & 1)
                 for rows in bils + (self.quasi_linear,)
                 for row in rows for x in row]
        self._den = den = lcm(*dens)

        def ints(row):
            return tuple(x.numerator * (den // x.denominator) for x in row)
        self._quasi_ints = tuple(
            (tuple(ints(row) for row in b),
             tuple(x.numerator * den // (2 * x.denominator) for x in lin))
            for b, lin in zip(bils, self.quasi_linear))
        self._cell_ints = tuple(tuple(zip((ints(row) for row in lin),
                                          ints(const)))
                                for lin, const in self.cell_affines)

    @cached_property
    def quasi_bilinear(self):
        """The B_i as read-only object arrays, built on first access."""
        return tuple(_object_matrix(b, writeable=False)
                     for b in self._quasi_bilinear_rows)

    # -- evaluation -----------------------------------------------------

    def _piece(self, idx, lam):
        """D lin and D const, per payload, of the piece on cells[idx] +
        lam (lam an integer vector), in integers:

            lin + B lam  and  const - lin.lam - 1/2 lam^T B lam + 1/2 L.lam

        Every entry of D B is even, so lam^T (D B) lam halves exactly."""
        out = []
        for (lin, const), (b, half_l) in zip(self._cell_ints[idx],
                                             self._quasi_ints):
            blam = [geom.dot(row, lam) for row in b]
            out.append((tuple(map(add, lin, blam)),
                        const - geom.dot(lin, lam) - geom.dot(lam, blam) // 2
                        + geom.dot(half_l, lam)))
        return out

    def affine_on_cell(self, idx: int, shift):
        """The affine piece (lin, const) valid on cells[idx] + shift.

        The shift must be an integer vector of length r (ValueError
        otherwise).  The piece is read from the integer table, one
        Fraction per coefficient."""
        lam = tuple(Fraction(x) for x in shift)
        if len(lam) != self.rank or any(x.denominator != 1 for x in lam):
            raise ValueError("shift %r is not an integer vector of length %d"
                             % (tuple(shift), self.rank))
        piece = self._piece(idx, [x.numerator for x in lam])
        return (tuple(tuple(Fraction(x, self._den) for x in lin)
                      for lin, _ in piece),
                tuple(Fraction(const, self._den) for _, const in piece))

    def evaluate(self, point):
        """f(point), a Fraction for k = 1 and a k-tuple otherwise.

        The point's denominators are cleared once, to integer numerators
        over one denominator, and evaluate_cleared does the rest."""
        return self.evaluate_cleared(
            *LatticeCoordinates.clear_denominators(point))

    __call__ = evaluate

    def evaluate_cleared(self, num, den):
        """f(num / den) for integer numerators num and an integer den > 0;
        each payload value is one Fraction over D den."""
        nums, scale = self.evaluate_numerators(num, den)
        vals = tuple(Fraction(n, scale) for n in nums)
        return vals[0] if self.payload_rank == 1 else vals

    def evaluate_numerators(self, num, den):
        """(N, D den): the integers N_i = D den f_i(num / den), one per
        payload, for integer numerators num and an integer den > 0.

        A point whose length is not the rank raises RankMismatch.  The
        point is located on its numerators (PeriodicPaving.locate_cleared)
        and N_i is read off the integer table of its piece."""
        if len(num) != self.rank:
            raise RankMismatch("point of length %d for a function of rank %d"
                               % (len(num), self.rank))
        loc = self.paving.locate_cleared(num, den)
        if loc is None:
            raise InvalidPaving("point %r not covered by the paving"
                                % (tuple(Fraction(x, den) for x in num),))
        return (tuple(geom.dot(lin, num) + den * const
                      for lin, const in self._piece(*loc)), self._den * den)

    # -- algebra --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PwAffineFunction):
            return NotImplemented
        return (self.paving == other.paving
                and self.payload_rank == other.payload_rank
                and self.cell_affines == other.cell_affines
                and self._quasi_bilinear_rows == other._quasi_bilinear_rows
                and self.quasi_linear == other.quasi_linear)

    def __add__(self, other):
        if self.paving != other.paving or \
                self.payload_rank != other.payload_rank:
            raise RankMismatch("can only add functions on the same paving")
        affs = [(tuple(tuple(a + b for a, b in zip(r1, r2))
                       for r1, r2 in zip(l1, l2)),
                 tuple(a + b for a, b in zip(c1, c2)))
                for (l1, c1), (l2, c2) in
                zip(self.cell_affines, other.cell_affines)]
        bil = [[list(map(add, ra, rb)) for ra, rb in zip(a, b)] for a, b in
               zip(self._quasi_bilinear_rows, other._quasi_bilinear_rows)]
        lin = tuple(tuple(a + b for a, b in zip(r1, r2))
                    for r1, r2 in zip(self.quasi_linear, other.quasi_linear))
        return PwAffineFunction(self.paving, affs, bil, lin,
                                self.payload_rank)

    def __rmul__(self, c):
        c = Fraction(c)
        affs = [(tuple(tuple(c * x for x in row) for row in lin),
                 tuple(c * x for x in const))
                for lin, const in self.cell_affines]
        bil = [[[c * x for x in row] for row in b]
               for b in self._quasi_bilinear_rows]
        lin = tuple(tuple(c * x for x in row) for row in self.quasi_linear)
        return PwAffineFunction(self.paving, affs, bil, lin,
                                self.payload_rank)


class QuasiperiodicDecomposition(Record):
    """psi = A + periodic with A(x) = 1/2 x^T B x + 1/2 L x.

    B and the period basis are kept as Fraction and int rows; their
    object arrays are built on first access."""

    bilinear: object = ObjectMatrix(as_frac)    # symmetric rational B
    quadratic_linear: tuple       # rational row L
    periodic: dict                # residue point -> value
    period_basis: object = ObjectMatrix()

    def __init__(self, bilinear, quadratic_linear, periodic, period_basis):
        object.__setattr__(self, "bilinear", bilinear)
        self.__dict__["quadratic_linear"] = quadratic_linear
        self.__dict__["periodic"] = periodic
        object.__setattr__(self, "period_basis", period_basis)

    @cached_property
    def lattice(self) -> LatticeCoordinates:
        """Coordinates for the period lattice, built on first use."""
        return LatticeCoordinates(self._period_basis_rows)

    def quadratic_part(self, x):
        v = tuple(Fraction(t) for t in x)
        return (Fraction(geom.bilinear(self._bilinear_rows, v, v)) / 2
                + geom.dot(self.quadratic_linear, v) / 2)

    def reconstruct(self, x):
        res = tuple(Fraction(a) - t for a, t in zip(x, self.lattice.shift(x)))
        if res not in self.periodic:
            raise MissingVertexValue("no sampled value in the orbit of %r"
                                     % (x,), field="samples")
        return self.quadratic_part(x) + self.periodic[res]


class ToricMonoid:
    """The monoid of lattice points of a rational polyhedral cone, given
    by the integral linear functionals cutting the cone out."""

    def __init__(self, rank: int, functionals):
        self.rank = int(rank)
        self.functionals = tuple(tuple(int(x) for x in u)
                                 for u in functionals)
        if any(len(u) != self.rank for u in self.functionals):
            raise ValueError("functionals must have length %d" % self.rank)

    @staticmethod
    def nonnegative_orthant(rank: int) -> "ToricMonoid":
        return ToricMonoid(rank, [tuple(1 if j == i else 0
                                        for j in range(rank))
                                  for i in range(rank)])

    def contains(self, v) -> bool:
        vv = [Fraction(x) for x in v]
        if any(x.denominator != 1 for x in vv):
            return False
        return all(geom.dot(u, vv) >= 0 for u in self.functionals)

    def is_unit(self, v) -> bool:
        return self.contains(v) and self.contains(tuple(-x for x in v))

    def is_sharp(self) -> bool:
        """No nonzero invertibles: the functionals span full rank."""
        return rank(self.functionals) == self.rank

    def hilbert_basis(self):
        """The irreducible elements of a sharp monoid, sorted by (L1
        norm, point); [] for a monoid of rank 0 or that is not sharp.

        The extremal rays of the cone are the inner normals of the
        facets of conv({0} u functionals) through 0.  An irreducible
        element is a ray or lies in the half-open parallelepiped of
        independent rays (Caratheodory), so |x_c| <= sum over the rays
        of |r_c| bounds the whole basis.  A box of more than
        MAX_WINDOW_POINTS points is refused, with TooLarge on the field
        ``monoid``, before any point is listed.  The sieve runs in the
        order of the grading g = sum of the functionals, positive off 0
        on a sharp monoid: p is reducible iff p - h is in the monoid for
        an irreducible h found before it."""
        if not self.rank or not self.is_sharp():
            return []
        funcs = self.functionals

        def inside(p):
            return all(geom.dot(u, p) >= 0 for u in funcs)
        rays = [tuple(-x for x in n) for _, n, c in geom.polytope_facets(
            ((0,) * self.rank,) + funcs) if c == 0]
        box = [sum(abs(r[c]) for r in rays) for c in range(self.rank)]
        points = prod(2 * b + 1 for b in box)
        if points > MAX_WINDOW_POINTS:
            raise TooLarge("the Hilbert basis box %r holds %d points, more "
                           "than %d" % (box, points, MAX_WINDOW_POINTS),
                           field="monoid")
        grading = tuple(map(sum, zip(*funcs)))
        basis = []
        for p in sorted((p for p in product(*(range(-b, b + 1) for b in box))
                         if any(p) and inside(p)),
                        key=lambda p: geom.dot(grading, p)):
            if not any(inside(geom.vsub(p, h)) for h in basis):
                basis.append(p)
        return sorted(basis, key=lambda p: (sum(map(abs, p)), p))


# ---------------------------------------------------------------------------
# bending parameters and convexity
# ---------------------------------------------------------------------------

def bending_parameters(f: PwAffineFunction):
    """Payload vector across each wall orbit of f's paving.

    A wall's first incident cell i + s_i has the primitive outward wall
    normal n, so the other cell lies where n is positive.  The pieces
    agree on the wall, so the linear part of f on the other cell minus
    f on cell i is t n, and the bending is t.  The pieces are read from
    f's integer table, D times the affine ones; there t is an integer
    because n is primitive, and each bending value is one Fraction
    t / D.
    """
    out = {}
    walls, normals = f.paving._walls
    for key, ((i, si), (j, sj)) in walls.items():
        piece_i, piece_j = f._piece(i, si), f._piece(j, sj)
        # the two pieces must agree on the wall itself
        for v in key:
            for (li, ci), (lj, cj) in zip(piece_i, piece_j):
                if geom.dot(li, v) + ci != geom.dot(lj, v) + cj:
                    raise NonMatchingFaces(
                        "pieces disagree at wall vertex %r" % (v,))
        n = normals[key]
        k = next(k for k, x in enumerate(n) if x)
        out[key] = tuple(Fraction((lin_j[k] - lin_i[k]) // n[k], f._den)
                         for (lin_i, _), (lin_j, _) in zip(piece_i, piece_j))
    return out


def is_p_convex(f: PwAffineFunction, p: ToricMonoid,
                strict: bool = False) -> bool:
    """Every bending parameter lies in p (strict: and is not a unit)."""
    if f.payload_rank != p.rank:
        raise RankMismatch("payload rank %d vs monoid rank %d"
                           % (f.payload_rank, p.rank))
    for bend in bending_parameters(f).values():
        if not p.contains(bend):
            return False
        if strict and p.is_unit(bend):
            return False
    return True


# ---------------------------------------------------------------------------
# quasiperiodic decomposition (quadratic + periodic splitting)
# ---------------------------------------------------------------------------

def quasiperiodic_decompose(samples: dict[tuple, Fraction],
                            period_basis) -> QuasiperiodicDecomposition:
    """Split lattice samples of a quasiperiodic function into a
    quadratic part 1/2 x^T B x + 1/2 L x and an exactly periodic rest.

    Second differences along every pair of period generators must be
    constant in the base point; any violation, or failure of the
    reconstruction, raises NotQuasiperiodic.  A period basis that is
    not square, or a sample point of another length, raises ValueError.
    """
    pb = read_matrix(period_basis)
    r = len(pb)
    samples = {tuple(int(x) for x in k): Fraction(v)
               for k, v in samples.items()}
    if any(len(row) != r for row in pb) or any(len(k) != r for k in samples):
        raise ValueError("samples must be points of length %d and the "
                         "period basis square of that size" % r)
    gens = [tuple(col) for col in zip(*pb)]

    gram = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            vals = set()
            for x in samples:
                pts = (geom.vadd(geom.vadd(x, gens[i]), gens[j]),
                       geom.vadd(x, gens[i]), geom.vadd(x, gens[j]))
                if all(p in samples for p in pts):
                    vals.add(samples[pts[0]] - samples[pts[1]]
                             - samples[pts[2]] + samples[x])
            if len(vals) != 1:
                raise NotQuasiperiodic(
                    "second difference along generators (%d, %d) is not "
                    "constant" % (i, j))
            gram[i][j] = gram[j][i] = vals.pop()

    # B = P^-T G P^-1 and L = (L . gens) P^-1; the columns of P^-1 are
    # those of the integer inverse rows over den
    lat = LatticeCoordinates(pb)
    cols = list(zip(*lat.inv_rows))
    bil = [[Fraction(geom.bilinear(gram, ca, cb), lat.den ** 2) for cb in cols]
           for ca in cols]

    lvals = []
    for i in range(r):
        vals = set()
        for x in samples:
            y = geom.vadd(x, gens[i])
            if y in samples:
                vals.add(samples[y] - samples[x]
                         - geom.bilinear(bil, x, gens[i]))
        if len(vals) != 1:
            raise NotQuasiperiodic(
                "increment along generator %d is not affine" % i)
        a_gen = vals.pop()                      # A(gen_i)
        lvals.append(2 * a_gen - gram[i][i])    # L . gen_i

    lrow = tuple(Fraction(geom.dot(lvals, c), lat.den) for c in cols)

    dec = QuasiperiodicDecomposition(bil, lrow, {}, pb)
    for x, v in samples.items():
        res = tuple(Fraction(a) - t for a, t in zip(x, lat.shift(x)))
        p = v - dec.quadratic_part(x)
        if dec.periodic.setdefault(res, p) != p:
            raise NotQuasiperiodic("residue %r has inconsistent periodic "
                                   "part" % (res,))
    return dec


# ---------------------------------------------------------------------------
# interpolation over a periodic triangulation
# ---------------------------------------------------------------------------

def _affine_through(points, values):
    """(lin, const) of the affine function taking each value at its
    point.  Degenerate unless the points affinely span Q^r and the
    values lie on one affine function (no pivot in the value column)."""
    r = len(points[0])
    reduced, pivots, _ = row_reduce(
        [list(p) + [1, v] for p, v in zip(points, values)], r + 2)
    if pivots != list(range(r + 1)):
        raise Degenerate("no unique affine function through the points")
    sol = [row[r + 1] for row in reduced]
    return tuple(sol[:r]), sol[r]


def interpolate_on_triangulation(values: dict[tuple, Fraction],
                                 t: PeriodicPaving) -> PwAffineFunction:
    """The function affine on each simplex of t matching the sampled
    vertex values (which must be quasiperiodic for the result to be
    well-defined off the sampled window)."""
    r = t.rank
    for c in t.cells:
        if len(c.vertices) != r + 1:
            raise NotSimplicial("cell %r is not a simplex" % (c.vertices,))
    dec = quasiperiodic_decompose(values, t.lattice.basis)

    affines = [_affine_through(c.vertices,
                               [dec.reconstruct(v) for v in c.vertices])
               for c in t.cells]
    return PwAffineFunction(t, affines, [dec._bilinear_rows],
                            [dec.quadratic_linear], payload_rank=1)


def cone_cy_membership(psi: dict[tuple, Fraction], t: PeriodicPaving,
                       period_basis) -> bool:
    """Is the interpolation g of psi over t convex and below psi at every
    lattice point that is not a vertex?

    psi is quasiperiodic for the lattice of ``period_basis``, and the
    interpolation decomposes it over t's period lattice, so the first
    must contain the second (InvalidPaving otherwise).  Then psi and g
    share their quadratic part, psi - g is periodic for t's lattice, and
    g <= psi is checked once per coset of Z^r modulo it: a lattice of
    index over MAX_WINDOW_POINTS is refused (TooLarge on the field
    ``paving``), and a coset psi does not sample raises
    MissingVertexValue on the field ``samples``.  The paving's window is
    unused; the answer is the same at every window."""
    pb = read_matrix(period_basis)
    lattice = LatticeCoordinates(pb)
    if not all(lattice.contains(col) for col in zip(*t.lattice.basis)):
        raise InvalidPaving("period_basis does not generate a lattice "
                            "containing the paving's period lattice",
                            field="period_basis")
    cosets = coset_representatives(t.lattice.basis, "paving")
    dec = quasiperiodic_decompose(psi, pb)
    g = interpolate_on_triangulation(psi, t)
    if any(b[0] < 0 for b in bending_parameters(g).values()):
        return False
    vert_orbits = t.vertex_orbits()
    return all(g.evaluate(alpha) <= dec.reconstruct(alpha) for alpha in cosets
               if geom.vsub(alpha, t.lattice.shift(alpha)) not in vert_orbits)


# ---------------------------------------------------------------------------
# the linear section Q -> interpolation of 1/2 Q
# ---------------------------------------------------------------------------

def sigma_section(q: QuadraticForm, period_basis,
                  window: int) -> PwAffineFunction:
    """Interpolation of x -> 1/2 Q(x) over the Delaunay paving of Q.

    The result is quasiperiodic with quadratic matrix Q and no linear
    part.  Each Delaunay cell is cospherical, so Q / 2 is affine on its
    vertices even on non-simplices: each piece is _affine_through the
    vertices and the values m(v) / (2 scale), Q = m / scale for the
    integer rows m, and every vertex is checked to lie on it.  Its
    paving is the one delaunay_subdivision keeps on q, if q has been
    paved with these arguments before.
    """
    pav = delaunay_subdivision(q, period_basis, window)
    m, scale = q.cleared()
    affines = [_affine_through(c.vertices,
                               [Fraction(geom.bilinear(m, v, v), 2 * scale)
                                for v in c.vertices])
               for c in pav.cells]
    zero = tuple(Fraction(0) for _ in range(q.rank))
    return PwAffineFunction(pav, affines, [q._matrix_rows], [zero],
                            payload_rank=1)


# ---------------------------------------------------------------------------
# exact lattice minima and the discrete Legendre transform
# ---------------------------------------------------------------------------

def lattice_minimum(f: PwAffineFunction, periods):
    """minimum(x, mu) = min over integer k of g(x + P k), g = f + <mu, .>,
    for the integer columns ``periods`` of P, periods of f.  D (g(x + P k)
    - g(x)) is 1/2 k^T G k + b.k, G = P^T (D B) P and b = P^T (D B x +
    D L / 2 + D mu) on f's integer table.  G is reduced once by an
    obtuse superbase (rank <= 3) and inverted once, G^-1 = N / den from
    LatticeCoordinates; each call rounds the real minimiser
    -G^-1 b = -N b / den and takes the point nearest to it of the
    ellipsoid through the rounding.  RankMismatch unless f is scalar,
    Unbounded unless G is positive definite."""
    if f.payload_rank != 1:
        raise RankMismatch("a lattice minimum needs scalar payload")
    (db, half_l), = f._quasi_ints
    cols = transpose(read_matrix(periods))
    r = len(cols)
    gram = [[geom.bilinear(db, a, b) for b in cols] for a in cols]
    if not is_positive_definite(gram):
        raise Unbounded("quadratic part not positive definite on periods")
    if r <= 3:      # a larger rank is enumerated unreduced, still exactly
        cols = [[geom.dot(u, row) for row in zip(*cols)]
                for u in _obtuse_superbase(gram)[:r]]
        gram = [[geom.bilinear(db, a, b) for b in cols] for a in cols]
    lat = LatticeCoordinates(gram)

    def minimum(x, mu):
        num, den = clear_denominators(x)
        grad = [geom.dot(row, num) + den * (h + f._den * m)
                for row, h, m in zip(db, half_l, mu)]
        b = [geom.dot(col, grad) for col in cols]
        centre = [-geom.dot(row, b) for row in lat.inv_rows]
        d = lat.den * den
        z = [d * ((2 * c + d) // (2 * d)) - c for c in centre]
        k, _ = min(_ellipsoid_points(lat, centre, d, geom.bilinear(
            gram, z, z)), key=itemgetter(1))
        y = geom.vadd(x, (geom.dot(k, row) for row in zip(*cols)))
        return f.evaluate(y) + geom.dot(mu, y)
    return minimum


def legendre_transform(f: PwAffineFunction, window: int):
    """phi-check(mu) = -min over paving vertices y of (f(y) + <y, mu>),
    on dual lattice points with coordinates in [-window, window].

    Each minimum is exact, one lattice_minimum per vertex orbit.  The
    window sizes only the dual box, refused (TooLarge) before anything
    is computed if it holds more than MAX_WINDOW_POINTS points."""
    if f.payload_rank != 1:
        raise RankMismatch("Legendre transform needs scalar payload")
    check_window_points(window, (2 * window + 1) ** f.rank)
    if any(b[0] < 0 for b in bending_parameters(f).values()):
        raise NotConvex("negative bending parameter")
    minimum = lattice_minimum(f, f.paving.lattice.basis)
    orbits = f.paving.vertex_orbits()
    return {mu: -min(minimum(v, mu) for v in orbits)
            for mu in product(range(-window, window + 1), repeat=f.rank)}


# ---------------------------------------------------------------------------
# affine-region paving (merge walls with zero bending)
# ---------------------------------------------------------------------------

def affine_region_paving(f: PwAffineFunction) -> PeriodicPaving:
    """The coarsening of f's paving into maximal regions on which f is
    affine: walls with zero bending are erased.

    Raises Unbounded when a merged region is unbounded (detected as a
    zero-bending wall chain returning to the same cell orbit with a
    nonzero net translation).
    """
    bends = bending_parameters(f)
    n = len(f.paving.cells)
    r = f.rank
    parent = list(range(n))
    offset = [(0,) * r for _ in range(n)]   # position relative to root

    def find(i):
        if parent[i] == i:
            return i, (0,) * r
        root, off = find(parent[i])
        parent[i] = root
        offset[i] = geom.vadd(offset[i], off)
        return root, offset[i]

    for key, incidences in f.paving.walls().items():
        if any(x != 0 for x in bends[key]):
            continue
        (i, si), (j, sj) = incidences
        ri, oi = find(i)
        rj, oj = find(j)
        # cells i+si and j+sj are glued: pos(j) - pos(i) = sj - si
        rel = geom.vsub(sj, si)
        if ri == rj:
            if geom.vadd(oi, rel) != oj:
                raise Unbounded("zero-bending wall cycle with nonzero "
                                "translation")
            continue
        parent[rj] = ri
        offset[rj] = geom.vsub(geom.vadd(oi, rel), oj)

    groups = {}
    for i in range(n):
        root, off = find(i)
        groups.setdefault(root, []).append((i, off))

    # a region's vertices are its points on r or more of its facets
    # (exact for r <= 3: any other boundary point is on at most r - 1)
    merged = []
    for members in groups.values():
        if len(members) == 1:
            i = members[0][0]
            pts = f.paving.cells[i].vertices
            facets = f.paving.cell_facets(i)
        else:
            pts = {geom.vadd(v, off) for i, off in members
                   for v in f.paving.cells[i].vertices}
            facets = geom.polytope_facets(pts)
        merged.append(f.paving.canonical_cell(
            [v for v in pts if sum(v in fv for fv, _, _ in facets) >= r]))
    return PeriodicPaving(f.rank, f.paving.lattice.basis, merged,
                          f.paving.window)
