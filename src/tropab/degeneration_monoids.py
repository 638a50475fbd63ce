"""Graded monoids twisted by the convexity cocycle of a piecewise
affine function, Fourier-index combinatorics of X/phi(Y), lattice-torus
actions on monomials, central-fiber dual complexes, and face-quotient
data.

Lattice vectors and matrices are plain int/Fraction rows inside, each
matrix argument read once by exact_linalg.read_matrix; this module
never imports numpy, and builds no array."""

from fractions import Fraction
from math import lcm

from . import _geometry as geom
from .errors import (InconsistentData, NotAFace, NotInjective, NotInvariant,
                     OutsideSupport, RankMismatch, Unbounded)
from .exact_linalg import (LatticeCoordinates, PolarizationType, Record,
                           _hnf_rows, _saturated_quotient_rows, _snf_rows,
                           as_int, coset_representatives, frac_det,
                           read_matrix, transpose)
from .pavings_pwl import PwAffineFunction, ToricMonoid, affine_region_paving
from .quadform_delaunay import PeriodicPaving, QuadraticForm


class HomogenizedFunction:
    """The degree-1-homogeneous extension of a piecewise affine function
    to the cone over its domain: (d, x) -> d * f(x / d), with the apex
    value (0, 0) -> 0."""

    def __init__(self, base: PwAffineFunction):
        self.base = base
        self.rank = base.rank
        self.payload_rank = base.payload_rank

    def value(self, degree: int, point):
        """d f(x / d) at degree d and point x, a Fraction for k = 1 and
        a k-tuple otherwise (value_numerators over their scale)."""
        nums, scale = self.value_numerators(degree, point)
        vals = tuple(Fraction(n, scale) for n in nums)
        return vals[0] if self.payload_rank == 1 else vals

    def value_numerators(self, degree: int, point):
        """(N, D den) with d f(x / d) = N_i / (D den) per payload, D the
        denominator of f's integer table and den that of the point: x is
        cleared once to num / den, and f's numerators at num / (den d)
        are over D den d, so d cancels.  At an integer point the scale
        is D.  A negative degree is refused on the field ``degree``, and
        a point of the wrong length, or other than the origin at degree
        0, on the field ``point``; a degree that is not an integer raises
        ValueError."""
        d = as_int(degree, "degree")
        if d < 0:
            raise OutsideSupport("negative degree %d" % d, field="degree")
        num, den = LatticeCoordinates.clear_denominators(point)
        if len(num) != self.rank:
            raise RankMismatch("point of length %d for a function of rank %d"
                               % (len(num), self.rank), field="point")
        if d == 0:
            if any(num):
                raise OutsideSupport("degree 0 admits only the origin",
                                     field="point")
            return (0,) * self.payload_rank, 1
        nums, scale = self.base.evaluate_numerators(num, den * d)
        return nums, scale // d


class TwistedMonoidElement(Record):
    """(degree, point, payload): an integer degree >= 0, an integer point
    (the origin at degree 0) and a rational payload.  A degree or point
    entry that is not an integer raises ValueError."""

    degree: int
    point: tuple
    payload: tuple

    def __init__(self, degree, point, payload):
        degree = as_int(degree, "degree")
        point = tuple(as_int(x, "point entry") for x in point)
        payload = tuple(Fraction(x) for x in payload)
        if degree < 0:
            raise OutsideSupport("negative degree", field="degree")
        if degree == 0 and any(point):
            raise OutsideSupport("degree 0 admits only the origin",
                                 field="point")
        self.__dict__["degree"] = degree
        self.__dict__["point"] = point
        self.__dict__["payload"] = payload


def star_cocycle(a, b, phi: HomogenizedFunction):
    """phi~(a) + phi~(b) - phi~(a+b) for a, b = (degree, point); this is
    the curvature 2-cocycle of phi, valued in the payload space: a
    Fraction for k = 1 and a k-tuple otherwise."""
    vals = _cocycle(a, b, phi)
    return vals[0] if phi.payload_rank == 1 else vals


def _cocycle(a, b, phi):
    """star_cocycle as a k-tuple.  The three values are integer
    numerators (value_numerators) brought over one scale, so each payload
    is one Fraction: (N_a + N_b - N_s) / D at integer points."""
    da, xa = a[0], tuple(a[1])
    db, xb = b[0], tuple(b[1])
    (na, sa), (nb, sb), (ns, ss) = (
        phi.value_numerators(da, xa), phi.value_numerators(db, xb),
        phi.value_numerators(da + db, geom.vadd(xa, xb)))
    scale = lcm(sa, sb, ss)
    return tuple(Fraction(p * (scale // sa) + q * (scale // sb)
                          - s * (scale // ss), scale)
                 for p, q, s in zip(na, nb, ns))


def twisted_add(x: TwistedMonoidElement, y: TwistedMonoidElement,
                phi: HomogenizedFunction) -> TwistedMonoidElement:
    """(d1, p1, a) + (d2, p2, b) = (d1+d2, p1+p2, a + b + p1*p2).  A
    point of the wrong length is refused with OutsideSupport, and a
    payload of the wrong length with RankMismatch (field ``payload``)."""
    if len(x.point) != phi.rank or len(y.point) != phi.rank:
        raise OutsideSupport("rank mismatch", field="point")
    if (len(x.payload), len(y.payload)) != (phi.payload_rank,) * 2:
        raise RankMismatch("payload rank is not %d" % phi.payload_rank,
                           field="payload")
    coc = _cocycle((x.degree, x.point), (y.degree, y.point), phi)
    return TwistedMonoidElement(
        x.degree + y.degree, geom.vadd(x.point, y.point),
        tuple(p + q + c for p, q, c in zip(x.payload, y.payload, coc)))


def minimal_lift(q, phi: HomogenizedFunction) -> TwistedMonoidElement:
    """The basis element over (degree, point): payload 0, sitting at
    height phi~(q) in the height presentation."""
    d, pt = q[0], tuple(q[1])
    phi.value(d, pt)   # validates membership in the support cone
    return TwistedMonoidElement(d, pt,
                                (0,) * phi.payload_rank)


def lift_height(el: TwistedMonoidElement, phi: HomogenizedFunction):
    """Height of an element in the graded-height presentation:
    phi~(degree, point) + payload (scalar payloads only)."""
    base = phi.value(el.degree, el.point)
    if phi.payload_rank != 1:
        raise OutsideSupport("height defined for scalar payloads")
    return base + el.payload[0]


# ---------------------------------------------------------------------------
# Fourier indices: X / phi(Y)
# ---------------------------------------------------------------------------

def fourier_indices(x_rank: int, phi_map):
    """Coset representatives of Z^r / (column lattice of phi_map), in
    the half-open HNF fundamental parallelepiped, plus the quotient type.
    An index over MAX_WINDOW_POINTS is refused (TooLarge on the field
    ``phi_map``) before any representative is listed.
    """
    return _fourier_indices(x_rank, phi_map)[:2]


def _fourier_indices(x_rank: int, phi_map):
    """fourier_indices and the rows of the u of the one Smith form
    u phi_map v = diag(type) that the type is read from."""
    m = read_matrix(phi_map)
    r = int(x_rank)
    if len(m) == r and all(len(row) == r for row in m):
        diag, u, _ = _snf_rows(m)
        if 0 not in diag:
            return (coset_representatives(m, "phi_map"),
                    PolarizationType(tuple(diag)), u)
    raise NotInjective("phi must be an injective map of rank %d" % r)


def fourier_reduce(vec, phi_map):
    """Canonical coset representative of vec modulo the column lattice."""
    m = read_matrix(phi_map)
    h, _ = _hnf_rows(transpose(m))
    r = len(m)
    v = [int(x) for x in vec]
    for i in range(r):
        q = v[i] // h[i][i]
        for j in range(r):
            v[j] -= q * h[i][j]
    return tuple(v)


# ---------------------------------------------------------------------------
# lattice-torus action on monomials
# ---------------------------------------------------------------------------

def y_action_on_monomial(lam, mu, data):
    """Action of the period lambda on the monomial with character index
    mu: the index moves to mu + phi_check(lambda) and the monomial picks
    up q^{A(lambda)} X^{mu}(lambda).

    data = (a_form, phi_check) with A(lambda) = 1/2 a_form(lambda); the
    compatibility <phi(lambda), phi_check(mu)> = A(l+m) - A(l) - A(m)
    forces a_form's matrix to equal phi_check, which is checked.
    """
    a_form, phi_check = data
    if not isinstance(a_form, QuadraticForm):
        a_form = QuadraticForm(read_matrix(a_form))
    pc = read_matrix(phi_check)
    if list(map(list, a_form._matrix_rows)) != pc:
        raise InconsistentData(
            "pairing matrix must equal the polarization of A")
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    new_mu = geom.vadd(mu, tuple(geom.dot(row, lam) for row in pc))
    q_exponent = a_form.value(lam) / 2
    return new_mu, q_exponent, mu


# ---------------------------------------------------------------------------
# central fiber dual complex
# ---------------------------------------------------------------------------

class CentralFiberComplex(Record):
    components: tuple            # LatticePolytope reps, one per orbit
    incidences: tuple            # sorted (i, j, wall_vertices) triples

    def __init__(self, components, incidences):
        self.__dict__["components"] = components
        self.__dict__["incidences"] = incidences

    @property
    def component_count(self):
        return len(self.components)


def central_fiber_complex(paving: PeriodicPaving,
                          phi_image_basis) -> CentralFiberComplex:
    """Orbit combinatorics of the maximal cells under translation by the
    column lattice of phi_image_basis, with codimension-1 incidences
    (self-incidences allowed).  A basis that is not square of the
    paving's rank, or singular, raises NotInjective; one of index over
    MAX_WINDOW_POINTS in the paving's period lattice is refused (TooLarge
    on the field ``phi_image_basis``) before any coset is listed."""
    phib = read_matrix(phi_image_basis)
    r = paving.rank
    lat = paving.lattice
    gens = [tuple(col) for col in zip(*phib)]
    for col in gens:
        if not lat.contains(col):
            raise NotInvariant(
                "phi-image generator %r is not a paving period" % (col,))

    # cosets of phi(Y) inside the paving period lattice, in the period
    # coordinates of the phi-image generators
    m = read_matrix(list(zip(*map(lat.coordinates, gens))))
    if len(m) != r or len(m[0]) != r or frac_det(m) == 0:
        raise NotInjective("phi must be an injective map of rank %d" % r)
    cosets = [lat.vector(k)
              for k in coset_representatives(m, "phi_image_basis")]

    # cells[i] + u is keyed by (i, w): its translate cells[i] + w by the
    # column lattice of phib with first vertex (the least) in that
    # lattice's fundamental parallelepiped
    sub = LatticeCoordinates(phib)

    def placed(vertices, u):
        return geom.vsub(u, sub.shift(geom.vadd(vertices[0], u)))

    comp_index = {}
    components = []
    for i, cell in enumerate(paving.cells):
        for t in cosets:
            # distinct cosets t give distinct placements
            key = (i, placed(cell.vertices, t))
            comp_index[key] = len(components)
            components.append(cell.translated(key[1]))

    incidences = set()
    for key, ((i, si), (j, sj)) in paving.walls().items():
        for t in cosets:
            ci = comp_index[i, placed(paving.cells[i].vertices,
                                      geom.vadd(si, t))]
            cj = comp_index[j, placed(paving.cells[j].vertices,
                                      geom.vadd(sj, t))]
            w = placed(key, t)
            a, b = sorted((ci, cj))
            incidences.add((a, b, tuple(geom.vadd(v, w) for v in key)))
    return CentralFiberComplex(tuple(components), tuple(sorted(incidences)))


# ---------------------------------------------------------------------------
# face quotients
# ---------------------------------------------------------------------------

class FaceQuotientData(Record):
    quotient_monoid: ToricMonoid
    pushed_function: PwAffineFunction
    coarsened_paving: PeriodicPaving | None
    admissible: bool

    def __init__(self, quotient_monoid, pushed_function, coarsened_paving,
                 admissible):
        self.__dict__["quotient_monoid"] = quotient_monoid
        self.__dict__["pushed_function"] = pushed_function
        self.__dict__["coarsened_paving"] = coarsened_paving
        self.__dict__["admissible"] = admissible


def face_quotient(p: ToricMonoid, face_functionals,
                  phi: PwAffineFunction):
    """Data attached to the face F = {x in P : u(x) = 0 for the given
    functionals}: the quotient monoid P/F, the composed function, its
    affine-region paving, and the boundedness (admissibility) flag.  P
    must be sharp: its Hilbert basis generates the faces."""
    if phi.payload_rank != p.rank:
        raise NotAFace("payload rank does not match the monoid")
    if not p.is_sharp():
        raise NotAFace("the monoid is not sharp", field="monoid")
    gens = p.hilbert_basis()
    funcs = [tuple(int(x) for x in u) for u in face_functionals]
    if any(len(u) != p.rank for u in funcs):
        raise ValueError("face functionals must have length %d" % p.rank)
    for u in funcs:
        for g in gens:
            if geom.dot(u, g) < 0:
                raise NotAFace(
                    "functional %r is negative on the monoid" % (u,))
    face_gens = [g for g in gens
                 if all(geom.dot(u, g) == 0 for u in funcs)]

    k = p.rank
    if not face_gens:
        pi = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        quotient = ToricMonoid(k, p.functionals)
    else:
        # the face generators are the columns spanning F; P + span F is
        # cut out by the facets through F (the tangent cone at F), the
        # functionals of P that vanish on every face generator, read on
        # the quotient through the section
        pi, sec, _ = _saturated_quotient_rows(transpose(face_gens))
        rows = (tuple(geom.dot(u, c) for c in zip(*sec))
                for u in p.functionals
                if not any(geom.dot(u, g) for g in face_gens))
        quotient = ToricMonoid(
            len(pi), sorted({geom.gcd_reduced(y) for y in rows if any(y)}))

    def push(rows):
        """pi @ rows, for the k rows of a k x r matrix."""
        cols = list(zip(*rows))
        return tuple(tuple(geom.dot(row, c) for c in cols) for row in pi)

    affs = [(push(lin), tuple(geom.dot(row, const) for row in pi))
            for lin, const in phi.cell_affines]
    bils, r = phi._quasi_bilinear_rows, phi.rank
    bil = [[[sum(c * b[i][j] for c, b in zip(row, bils)) for j in range(r)]
            for i in range(r)] for row in pi]
    pushed = PwAffineFunction(phi.paving, affs, bil, push(phi.quasi_linear),
                              payload_rank=len(pi))
    if not pi:
        # quotient by everything: the pushed function is identically 0
        return FaceQuotientData(quotient, pushed, None, False)
    try:
        coarser = affine_region_paving(pushed)
        return FaceQuotientData(quotient, pushed, coarser, True)
    except Unbounded:
        return FaceQuotientData(quotient, pushed, None, False)
