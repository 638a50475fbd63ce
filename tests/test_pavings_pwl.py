"""Quasiperiodic piecewise affine functions: bending across walls,
decomposition into quadratic + periodic, interpolation, the linear
section sigma, Legendre duality, and affine-region coarsening."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropab.degeneration_monoids import HomogenizedFunction
from tropab.errors import (InvalidPaving, MissingVertexValue,
                           NonMatchingFaces, NotConvex, NotQuasiperiodic,
                           NotSimplicial, RankMismatch, TooLarge, Unbounded)
from tropab.exact_linalg import LatticeCoordinates
from tropab.pavings_pwl import (PwAffineFunction, ToricMonoid,
                                affine_region_paving, bending_parameters,
                                cone_cy_membership,
                                interpolate_on_triangulation, is_p_convex,
                                legendre_transform, quasiperiodic_decompose,
                                sigma_section)
from tropab.quadform_delaunay import (LatticePolytope, PeriodicPaving,
                                      QuadraticForm, delaunay_subdivision)

from oracles import (bending_reference, brute_force_legendre,
                     cone_cy_reference, cone_rays_reference,
                     evaluate_reference, hilbert_basis_rank2_reference, hilbert_basis_sieve,
                     interp_half_square,
                     second_difference_quadratic_1d, shifted_affine_reference)

F = Fraction


def _obj(m):
    return np.array(m, dtype=object)


I1 = _obj([[1]])
I2 = np.eye(2, dtype=object)
Q1 = QuadraticForm(I1)
A2 = QuadraticForm(_obj([[2, 1], [1, 2]]))


def unit_intervals(period=1, window=3):
    cells = [LatticePolytope(((k,), (k + 1,))) for k in range(period)]
    return PeriodicPaving(1, _obj([[period]]), cells, window)


# -- evaluation and quasiperiodicity ---------------------------------------

def test_sigma_interpolates_the_half_square():
    s = sigma_section(Q1, I1, 3)
    for x in [F(0), F(1), F(1, 2), F(5, 2), F(-7, 3), F(19, 4)]:
        assert s((x,)) == interp_half_square(x)


def test_affine_piece_transport():
    s = sigma_section(Q1, I1, 3)
    # on [2, 3] the interpolation of n^2/2 is 5x/2 - 3
    lin, const = s.affine_on_cell(0, (2,))
    assert lin == ((F(5, 2),),)
    assert const == (F(-3),)


def test_globally_affine_function_needs_linear_increment():
    # f(x) = x is quasiperiodic with B = 0 and L = (2)
    pav = unit_intervals()
    f = PwAffineFunction(pav, [((F(1),), F(0))], [_obj([[0]])], [(F(2),)])
    assert f((F(7, 2),)) == F(7, 2)
    assert bending_parameters(f) == {((0,),): (F(0),)}


def test_mismatched_pieces_raise():
    pav = unit_intervals(period=2)
    # pieces disagree at the shared vertex 1
    f = PwAffineFunction(pav, [((F(1),), F(0)), ((F(1),), F(5))],
                         [_obj([[0]])], [(F(4),)])
    with pytest.raises(NonMatchingFaces):
        bending_parameters(f)


# -- bending ----------------------------------------------------------------

def test_sigma_bending_is_one_everywhere():
    assert bending_parameters(sigma_section(Q1, I1, 3)) == {
        ((0,),): (F(1),)}
    bends = bending_parameters(sigma_section(A2, I2, 4))
    assert sorted(bends.values()) == [(F(1),)] * 3


def test_bending_additivity():
    s = sigma_section(A2, I2, 4)
    b1 = bending_parameters(s)
    b3 = bending_parameters(F(3, 2) * s + s)
    assert b3 == {k: (F(5, 2) * v[0],) for k, v in b1.items()}


def test_is_p_convex():
    nat = ToricMonoid.nonnegative_orthant(1)
    s = sigma_section(Q1, I1, 3)
    assert is_p_convex(s, nat)
    assert is_p_convex(s, nat, strict=True)
    flat = PwAffineFunction(unit_intervals(), [((F(1),), F(0))],
                            [_obj([[0]])], [(F(2),)])
    assert is_p_convex(flat, nat)
    assert not is_p_convex(flat, nat, strict=True)
    assert not is_p_convex(-1 * s, nat)


def test_is_p_convex_vector_payload():
    # payload (x^2/2, -x^2/2): bending (1, -1) lies in the halfplane
    # monoid {a + b >= 0} but not in the orthant
    pav = sigma_section(Q1, I1, 3).paving
    f = PwAffineFunction(
        pav, [(((F(1, 2),), (F(-1, 2),)), (F(0), F(0)))],
        [_obj([[1]]), _obj([[-1]])], [(F(0),), (F(0),)], payload_rank=2)
    assert is_p_convex(f, ToricMonoid(2, [(1, 1)]))
    assert not is_p_convex(f, ToricMonoid.nonnegative_orthant(2))
    with pytest.raises(RankMismatch):
        is_p_convex(f, ToricMonoid.nonnegative_orthant(1))


# -- toric monoids ----------------------------------------------------------

def test_hilbert_basis_orthant():
    assert ToricMonoid.nonnegative_orthant(2).hilbert_basis() == [
        (0, 1), (1, 0)]


def test_hilbert_basis_sheared_cone():
    m = ToricMonoid(2, [(1, 1), (0, 1)])
    assert m.hilbert_basis() == [(1, 0), (-1, 1)]
    assert m.is_sharp()
    assert not ToricMonoid(1, [(0,)]).is_sharp()


def test_hilbert_basis_reaches_past_any_fixed_box():
    """{x >= 0, 7y >= x} has the ray (7, 1): a box of side 6 missed it."""
    got = ToricMonoid(2, [(1, 0), (-1, 7)]).hilbert_basis()
    assert got == [(0, 1)] + [(x, 1) for x in range(1, 8)]
    assert got == hilbert_basis_rank2_reference([(1, 0), (-1, 7)])


def test_hilbert_basis_of_degenerate_and_rank_3_cones():
    assert ToricMonoid.nonnegative_orthant(3).hilbert_basis() == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert ToricMonoid(0, []).hilbert_basis() == []
    assert ToricMonoid(2, [(1, 0)]).hilbert_basis() == []
    assert ToricMonoid(1, [(1,), (-1,)]).hilbert_basis() == []
    assert ToricMonoid(2, [(1, 0), (-1, 0), (0, 1)]).hilbert_basis() == [
        (0, 1)]
    funcs = [(1, 0, 0), (0, 1, 0), (-1, -1, 5)]
    got = ToricMonoid(3, funcs).hilbert_basis()
    assert len(got) == 21
    assert got == hilbert_basis_sieve(funcs, 3)


def test_hilbert_basis_refuses_a_huge_box_before_listing_it():
    """The rays (1000, 0, 1) and (0, 1000, 1) span a box of 2001^2 * 7
    points; the refusal comes first and names the monoid."""
    m = ToricMonoid(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 1000)])
    with pytest.raises(TooLarge) as err:
        m.hilbert_basis()
    assert err.value.field == "monoid"


_FUNCTIONALS = {2: st.lists(st.tuples(*[st.integers(-8, 8)] * 2),
                            min_size=2, max_size=4),
                3: st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                            min_size=3, max_size=4)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda r: st.tuples(st.just(r), _FUNCTIONALS[r])))
@example((2, [(1, 0), (-1, 7)]))
@example((2, [(7, -2), (-3, 1)]))
@example((3, [(1, 0, 0), (0, 1, 0), (-1, -1, 5)]))
def test_hilbert_basis_matches_the_oracles(case):
    """Rank 2 against the Hirzebruch-Jung continued fraction, rank 3
    against the all-pairs sieve over the box of the oracle's own rays."""
    r, funcs = case
    m = ToricMonoid(r, funcs)
    assume(m.is_sharp())
    if r == 2:
        assert m.hilbert_basis() == hilbert_basis_rank2_reference(funcs)
    else:
        # the sieve is quadratic in the points of its box
        box = [sum(abs(v[c]) for v in cone_rays_reference(funcs, 3))
               for c in range(3)]
        assume(prod(2 * b + 1 for b in box) <= 3000)
        assert m.hilbert_basis() == hilbert_basis_sieve(funcs, 3)


def test_monoid_membership_and_units():
    m = ToricMonoid(2, [(1, 0)])       # halfplane x >= 0
    assert m.contains((0, -5))
    assert m.is_unit((0, -5))
    assert not m.is_unit((1, 0))


# -- quasiperiodic decomposition --------------------------------------------

def test_decompose_pure_quadratic():
    samples = {(x,): F(x * x, 2) for x in range(-4, 5)}
    d = quasiperiodic_decompose(samples, I1)
    assert d.bilinear[0, 0] == 1
    assert d.quadratic_linear == (F(0),)
    assert d.periodic == {(F(0),): F(0)}
    assert d.reconstruct((7,)) == F(49, 2)


def test_decompose_matches_second_difference_oracle():
    samples = {(x,): F(x * x * 3, 2) + F(x, 2) + (1 if x % 2 else 0)
               for x in range(-6, 7)}
    d = quasiperiodic_decompose(samples, _obj([[2]]))
    b, l, per = second_difference_quadratic_1d(
        {x: v for (x,), v in samples.items()}, 2)
    assert d.bilinear[0, 0] == b
    assert d.quadratic_linear == (l,)
    assert {int(k[0]): v for k, v in d.periodic.items()} == per


def test_decompose_rank2():
    samples = {(x, y): F(x * x + x * y + y * y) + (x + 2 * y) % 3
               for x in range(-3, 4) for y in range(-3, 4)}
    d = quasiperiodic_decompose(samples, 3 * I2)
    assert (d.bilinear == _obj([[2, 1], [1, 2]])).all()
    assert (d.bilinear == d.bilinear.T).all()
    for pt in [(5, -2), (-4, 7)]:
        assert d.reconstruct(pt) == \
            F(pt[0] ** 2 + pt[0] * pt[1] + pt[1] ** 2) + \
            (pt[0] + 2 * pt[1]) % 3


def test_decompose_rejects_cubic():
    samples = {(x,): F(x ** 3) for x in range(-4, 5)}
    with pytest.raises(NotQuasiperiodic):
        quasiperiodic_decompose(samples, I1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 8), st.integers(-8, 8),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_decompose_roundtrip_random(b, l, per):
    samples = {(x,): F(b * x * x, 2) + F(l * x, 2) + per[x % 2]
               for x in range(-5, 6)}
    d = quasiperiodic_decompose(samples, _obj([[2]]))
    for (x,), v in samples.items():
        assert d.reconstruct((x,)) == v


# -- interpolation and the cone of convex support functions -----------------

def test_interpolation_matches_values_and_midpoints():
    vals = {(x,): F(x * x, 2) for x in range(-4, 5)}
    g = interpolate_on_triangulation(vals, unit_intervals())
    assert g((3,)) == F(9, 2)
    assert g((F(1, 2),)) == F(1, 4)


def test_interpolation_requires_simplices():
    sq = delaunay_subdivision(QuadraticForm(I2), I2, 3)
    with pytest.raises(NotSimplicial):
        interpolate_on_triangulation({}, sq)


def test_cone_cy_membership_cases():
    psi = {(x,): F(x * x, 2) for x in range(-5, 6)}
    assert cone_cy_membership(psi, unit_intervals(), I1)
    # a periodic perturbation that destroys convexity
    bumpy = {(x,): F(x * x, 2) + (0 if x % 2 == 0 else 2)
             for x in range(-5, 6)}
    t2 = delaunay_subdivision(Q1, _obj([[2]]), 4)
    assert not cone_cy_membership(bumpy, t2, _obj([[2]]))
    # too-coarse paving: the chord over [0, 2] overshoots psi(1)
    coarse = PeriodicPaving(1, _obj([[2]]),
                            [LatticePolytope(((0,), (2,)))], 4)
    assert not cone_cy_membership(psi, coarse, _obj([[2]]))


def test_cone_cy_refuses_a_period_lattice_not_containing_the_pavings():
    # psi is quasiperiodic for 2Z only; the paving's period lattice is Z
    psi = {(x,): F(x * x, 2) + x % 2 for x in range(-5, 6)}
    with pytest.raises(InvalidPaving) as err:
        cone_cy_membership(psi, unit_intervals(), _obj([[2]]))
    assert err.value.field == "period_basis"


def test_cone_cy_answers_a_huge_window_as_window_3():
    psi = {(x,): F(x * x, 2) for x in range(-5, 6)}
    assert cone_cy_membership(psi, unit_intervals(window=10 ** 9), I1) == \
        cone_cy_membership(psi, unit_intervals(window=3), I1)


@pytest.mark.parametrize("window", [2, 3, 10 ** 9])
def test_cone_cy_checks_every_residue(window):
    """psi is 7-periodic with a dip of -1 at residue 3, which no point of
    [-2, 2] reaches: g = 0 on the cell [0, 7] lies above psi(3)."""
    psi = {(x,): F(-1 if x % 7 == 3 else 0) for x in range(-10, 11)}
    t = PeriodicPaving(1, _obj([[7]]), [((0,), (7,))], window)
    assert not cone_cy_membership(psi, t, _obj([[7]]))


def test_cone_cy_refuses_an_unsampled_residue():
    """psi is sampled at even points only, so g <= psi at odd points is
    not decided; they used to be skipped."""
    psi = {(x,): F(x * x, 2) for x in range(-6, 7, 2)}
    t = PeriodicPaving(1, _obj([[2]]), [((0,), (2,))], 3)
    with pytest.raises(MissingVertexValue) as err:
        cone_cy_membership(psi, t, _obj([[2]]))
    assert err.value.field == "samples"


def test_cone_cy_refuses_a_paving_of_huge_index():
    psi = {(x,): F(x * x, 2) for x in range(-5, 6)}
    with pytest.raises(TooLarge) as err:
        cone_cy_membership(psi, PeriodicPaving(
            1, _obj([[10 ** 6]]), [((0,), (10 ** 6,))], 3), I1)
    assert err.value.field == "paving"


CY_FORMS = {1: [[[1]], [[2]], [[3]]],
            2: [[[2, 1], [1, 2]], [[2, 1], [1, 3]], [[3, -1], [-1, 2]],
                [[4, 1], [1, 2]]]}
CY_COARSER = {1: [[2]], 2: [[2, 1], [0, 1]]}


@st.composite
def cy_cases(draw):
    """psi = 1/2 Q plus a periodic perturbation, sampled on a box, for the
    lattice of pb; and t, the Delaunay triangles of Q at the period basis
    B scaled by k = 1 or 2, with period lattice k B inside pb's.  At
    k = 2 the cells hold lattice points that are not vertices.  t's
    window holds its fundamental parallelepiped, so the reference sees
    every coset."""
    r = draw(st.integers(1, 2))
    qm = draw(st.sampled_from(CY_FORMS[r]))
    q = QuadraticForm(_obj(qm))
    b = draw(st.sampled_from([np.eye(r, dtype=int).tolist(), CY_COARSER[r]]))
    k = draw(st.integers(1, 2))
    tb = [[k * x for x in row] for row in b]
    cells = [tuple(tuple(k * x for x in v) for v in c.vertices)
             for c in delaunay_subdivision(q, _obj(b), 6).cells]
    window = max(2, max(sum(map(abs, row)) for row in tb))
    t = PeriodicPaving(r, _obj(tb), cells, window)
    pb = draw(st.sampled_from([np.eye(r, dtype=int).tolist(), b]))
    lattice = LatticeCoordinates(pb)
    box = list(product(range(-6, 7), repeat=r))
    residue = {p: tuple(x - s for x, s in zip(p, lattice.shift(p)))
               for p in box}
    orbits = sorted(set(residue.values()))
    bumps = dict(zip(orbits, draw(st.lists(
        st.integers(-2, 2), min_size=len(orbits), max_size=len(orbits)))))
    psi = {p: q.value(p) / 2 + F(bumps[residue[p]], 2) for p in box}
    return psi, t, pb


@settings(max_examples=40, deadline=None)
@given(cy_cases())
def test_cone_cy_matches_the_window_reference(case):
    """One pass over the cosets answers as the window scan over t's
    fundamental parallelepiped, at any window t carries."""
    psi, t, pb = case
    want = cone_cy_reference(psi, t, pb)
    t2 = PeriodicPaving(t.rank, t.period_basis, t.cells, 2)
    assert cone_cy_membership(psi, t2, pb) == want


def test_cone_cy_rejects_non_quasiperiodic():
    bad = {(x,): F(x * x, 2) for x in range(-5, 6)}
    bad[(1,)] = F(-3)
    with pytest.raises(NotQuasiperiodic):
        cone_cy_membership(bad, unit_intervals(), I1)


# -- sigma is a linear section ----------------------------------------------

def test_sigma_quasi_data_is_the_form():
    s = sigma_section(A2, I2, 4)
    assert (s.quasi_bilinear[0] == A2.matrix).all()
    assert s.quasi_linear == ((F(0), F(0)),)


def test_sigma_additive_on_shared_triangulations():
    # A2 and a small positive multiple share their Delaunay paving
    q2 = QuadraticForm(_obj([[4, 2], [2, 4]]))
    s = sigma_section(A2, I2, 4)
    t = sigma_section(q2, I2, 4)
    u = sigma_section(A2 + q2, I2, 4)
    assert u == s + t
    assert sigma_section(A2.scaled(3), I2, 4) == \
        F(1, 1) * (sigma_section(A2, I2, 4) + sigma_section(
            A2.scaled(2), I2, 4))


# -- Legendre transform -----------------------------------------------------

def test_legendre_of_half_square():
    s = sigma_section(Q1, I1, 3)
    lt = legendre_transform(s, 2)
    assert lt == {(-2,): F(2), (-1,): F(1, 2), (0,): F(0),
                  (1,): F(1, 2), (2,): F(2)}
    for mu in range(-2, 3):
        assert lt[(mu,)] == brute_force_legendre(s, (mu,))


def test_legendre_needs_growth():
    flat = PwAffineFunction(unit_intervals(), [((F(1),), F(0))],
                            [_obj([[0]])], [(F(2),)])
    with pytest.raises(Unbounded):
        legendre_transform(flat, 2)


def test_legendre_rejects_concave():
    vals = {(x,): -F(x * x, 2) for x in range(-4, 5)}
    g = interpolate_on_triangulation(vals, unit_intervals())
    with pytest.raises(NotConvex):
        legendre_transform(g, 2)


def test_legendre_rank2():
    s = sigma_section(QuadraticForm(I2), I2, 3)
    lt = legendre_transform(s, 1)
    assert lt[(0, 0)] == F(0)
    assert lt[(1, 0)] == lt[(0, -1)] == F(1, 2)
    assert lt[(1, 1)] == F(1)


def _sheared(qm, k):
    """u^T q u for the shear u = [[1, k], [0, 1]]."""
    u = _obj([[1, k], [0, 1]])
    return (u.T @ _obj(qm) @ u).tolist()


def test_legendre_is_exact_on_skewed_forms():
    """Minima far from the dual box: at (-2, -2) the minimising vertex
    of the first form is (27, 15), and the shears put theirs ever
    further out."""
    s = sigma_section(QuadraticForm(_obj([[14, -25], [-25, 45]])), I2, 5)
    lt = legendre_transform(s, 2)
    assert (lt[(-2, -2)], lt[(-1, -1)]) == (F(87, 2), F(21, 2))
    for k, want in ((3, 6), (8, 46), (20, 305), (40, 1249)):
        s = sigma_section(QuadraticForm(_obj(_sheared([[2, 1], [1, 3]], k))),
                          I2, k + 3)
        assert legendre_transform(s, 2)[(2, 2)] == want


@st.composite
def legendre_cases(draw):
    """(form, sigma window, mu): a reduced binary form sheared by
    k <= 40, or a reduced ternary form, with mu in [-2, 2]^r."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 5))
        b = a + draw(st.integers(0, 4))
        c = draw(st.integers(-(a // 2), a // 2))
        k = draw(st.integers(0, 40))
        qm = _sheared([[a, c], [c, b]], k)
        if draw(st.booleans()):
            qm = [[qm[1][1], qm[0][1]], [qm[0][1], qm[0][0]]]
        window = k + 3
    else:
        d = draw(st.lists(st.integers(2, 6), min_size=3, max_size=3))
        qm = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lim = min(d[i], d[j]) // 2
            qm[i][j] = qm[j][i] = draw(st.integers(-lim, lim))
        window = 3
    assume(QuadraticForm(_obj(qm)).is_positive_definite())
    mu = tuple(draw(st.lists(st.integers(-2, 2), min_size=len(qm),
                             max_size=len(qm))))
    return qm, window, mu


@settings(max_examples=20, deadline=None)
@given(legendre_cases())
@example(([[14, -25], [-25, 45]], 5, (-2, -2)))
@example(([[2, 41], [41, 843]], 23, (2, 2)))
@example(([[4, -2], [-2, 5]], 3, (0, -2)))
@example(([[2, -1, -1], [-1, 3, -1], [-1, -1, 4]], 3, (-2, -1, -1)))
def test_legendre_matches_brute_force(case):
    """The last two examples are minima that rounding the real minimiser
    in the superbase basis misses."""
    qm, window, mu = case
    s = sigma_section(QuadraticForm(_obj(qm)),
                      np.eye(len(qm), dtype=object), window)
    lt = legendre_transform(s, max(map(abs, mu)))
    assert lt[mu] == brute_force_legendre(s, mu)


# -- affine-region coarsening -----------------------------------------------

def test_affine_regions_of_sigma_recover_delaunay():
    for q in (Q1, A2, QuadraticForm(_obj([[3, 1], [1, 2]]))):
        pb = I1 if q.rank == 1 else I2
        s = sigma_section(q, pb, 6)
        assert affine_region_paving(s) == delaunay_subdivision(q, pb, 6)


def test_affine_regions_merge_unbent_walls():
    # interpolate x^2/8-ish values sampled on the finer unit intervals:
    # the quadratic form has its Delaunay cells of length 2, so half the
    # walls of the fine triangulation carry zero bending
    vals = {(x,): F(x * x + x % 2, 4) for x in range(-6, 7)}
    g = interpolate_on_triangulation(vals, unit_intervals(period=2,
                                                          window=4))
    merged = affine_region_paving(g)
    assert [c.vertices for c in merged.cells] == [((0,), (2,))]


def test_affine_regions_drop_a_listed_point_that_is_not_a_vertex():
    # the interpolation x + y/2 of (x^2 + y^2)/2 on [0, 2] x [0, 1], a
    # hand-built cell that also lists the edge midpoints (1, 0), (1, 1);
    # every wall bends, so the cell is a region of its own
    cell = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    pav = PeriodicPaving(2, _obj([[2, 0], [0, 1]]), [cell], 3)
    f = PwAffineFunction(pav, [((F(1), F(1, 2)), F(0))], [I2], [(0, 0)])
    assert all(b != (0,) for b in bending_parameters(f).values())
    assert [c.vertices for c in affine_region_paving(f).cells] == \
        [((0, 0), (0, 1), (2, 0), (2, 1))]


def _kuhn_cube(r):
    """The r! simplices 0, e_s0, e_s0 + e_s1, ..., one per order s of the
    axes, that triangulate the unit r-cube."""
    cells = []
    for order in permutations(range(r)):
        v, verts = [0] * r, [(0,) * r]
        for k in order:
            v[k] = 1
            verts.append(tuple(v))
        cells.append(LatticePolytope(tuple(verts)))
    return PeriodicPaving(r, np.eye(r, dtype=object), cells, 3)


@pytest.mark.parametrize("r", [2, 3])
def test_affine_regions_merge_the_kuhn_cube(r):
    # Q / 2 for Q the identity is affine on the unit cube, so the walls
    # between the r! simplices carry no bending and the cube is one region
    vals = {x: F(sum(c * c for c in x), 2)
            for x in product(range(-2, 3), repeat=r)}
    g = interpolate_on_triangulation(vals, _kuhn_cube(r))
    assert len(g.paving.cells) == factorial(r)
    assert [c.vertices for c in affine_region_paving(g).cells] == \
        [tuple(product((0, 1), repeat=r))]


def test_affine_regions_of_affine_function_are_unbounded():
    flat = PwAffineFunction(unit_intervals(), [((F(1),), F(0))],
                            [_obj([[0]])], [(F(2),)])
    with pytest.raises(Unbounded):
        affine_region_paving(flat)


# -- evaluation in cleared integers -----------------------------------------

@pytest.mark.parametrize("q, pb, point", [
    (Q1, I1, (F(5, 2), 7)),
    (Q1, I1, ()),
    (A2, I2, (1,)),
    (A2, I2, (1, 2, 3)),
], ids=["rank1-at-2", "rank1-at-0", "hex-at-1", "hex-at-3"])
def test_points_of_the_wrong_length_are_refused(q, pb, point):
    s = sigma_section(q, pb, 4)
    phi = HomogenizedFunction(s)
    for read in (s.evaluate, s, lambda x: phi.value(1, x),
                 lambda x: phi.value(0, x)):
        with pytest.raises(RankMismatch) as err:
            read(point)
        assert str(err.value) == ("point of length %d for a function of "
                                  "rank %d" % (len(point), q.rank))


def test_function_data_is_immutable():
    bil = _obj([[0]])
    f = PwAffineFunction(unit_intervals(), [((F(1),), F(0))], [bil],
                         [(F(2),)])
    assert isinstance(f.cell_affines, tuple)
    assert isinstance(f.quasi_bilinear, tuple)
    with pytest.raises(ValueError):
        f.quasi_bilinear[0][0, 0] = F(5)
    bil[0, 0] = 7    # the function holds its own copy
    assert f.quasi_bilinear[0][0, 0] == 0
    assert f((F(7, 2),)) == F(7, 2)


def test_affine_on_cell_refuses_a_non_integral_shift():
    s = sigma_section(Q1, I1, 3)
    for shift in [(F(1, 2),), ("5/2",), (1, 0)]:
        with pytest.raises(ValueError):
            s.affine_on_cell(0, shift)
    assert s.affine_on_cell(0, (F(2),)) == s.affine_on_cell(0, (2,))


def test_uncovered_point_message_names_the_point():
    pav = delaunay_subdivision(A2, I2, 4)
    holed = PeriodicPaving(2, I2, [pav.cells[0]], 4)
    f = PwAffineFunction(holed, [((0, 0), 0)], [_obj([[0, 0], [0, 0]])],
                         [(0, 0)])
    with pytest.raises(InvalidPaving) as err:
        f.evaluate((F(17, 3), "-1/3"))
    assert str(err.value) == ("point (Fraction(17, 3), Fraction(-1, 3)) "
                              "not covered by the paving")


# (form, period basis, window) for the pavings of the property test:
# the period bases I_r, [[2, 1], [0, 1]] and [[2]]
PAVED = [
    ([[1]], [[1]], 3),
    ([[1]], [[2]], 3),
    ([[2, 1], [1, 2]], [[1, 0], [0, 1]], 4),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
]


@lru_cache(maxsize=None)
def _paved(i):
    q, pb, window = PAVED[i]
    return delaunay_subdivision(QuadraticForm(_obj(q)), _obj(pb), window)


_coefficients = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def pw_functions(draw):
    """Random data on a Delaunay paving: payload rank 0-2, coefficients
    with denominators up to 6, symmetric B_i."""
    pav = _paved(draw(st.integers(0, len(PAVED) - 1)))
    r, k = pav.rank, draw(st.integers(0, 2))

    def rows(n):
        return [[draw(_coefficients) for _ in range(r)] for _ in range(n)]
    affs = [(rows(k), [draw(_coefficients) for _ in range(k)])
            for _ in pav.cells]
    bils = []
    for _ in range(k):
        b = rows(r)
        bils.append([[b[min(i, j)][max(i, j)] for j in range(r)]
                     for i in range(r)])
    return PwAffineFunction(pav, affs, bils, rows(k), payload_rank=k)


@st.composite
def continuous_functions(draw):
    """c_i sigma in payload i, i < k, k = 0-2, for sigma the section of a
    form of PAVED over its paving: continuous, so no wall raises."""
    q, pb, window = PAVED[draw(st.integers(0, len(PAVED) - 1))]
    s = sigma_section(QuadraticForm(_obj(q)), _obj(pb), window)
    cs = [draw(_coefficients) for _ in range(draw(st.integers(0, 2)))]
    affs = [([[c * x for x in lin[0]] for c in cs], [c * const[0] for c in cs])
            for lin, const in s.cell_affines]
    return PwAffineFunction(s.paving, affs,
                            [c * s.quasi_bilinear[0] for c in cs],
                            [[0] * s.rank for _ in cs], payload_rank=len(cs))


def _points(r):
    """Points within +-60 with denominators up to 4."""
    coord = st.integers(1, 4).flatmap(
        lambda d: st.builds(Fraction, st.integers(-60 * d, 60 * d),
                            st.just(d)))
    return st.tuples(*[coord] * r)


def _typed(v):
    return type(v), v if type(v) is not tuple else tuple(map(_typed, v))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_evaluation_matches_fraction_reference(data):
    f = data.draw(pw_functions())
    r = f.rank
    idx = data.draw(st.integers(0, len(f.paving.cells) - 1))
    shift = data.draw(st.tuples(*[st.integers(-60, 60)] * r))
    assert _typed(f.affine_on_cell(idx, shift)) == \
        _typed(shifted_affine_reference(f, idx, shift))
    phi = HomogenizedFunction(f)
    for x in data.draw(st.lists(_points(r), min_size=1, max_size=3)):
        assert _typed(f.evaluate(x)) == _typed(evaluate_reference(f, x))
        for d in (1, 2, 3):
            want = evaluate_reference(f, [c / d for c in x])
            want = d * want if f.payload_rank == 1 else \
                tuple(d * v for v in want)
            assert _typed(phi.value(d, x)) == _typed(want)


# -- bending on the integer table vs the Fraction reference -----------------

def _bending_or_refusal(bend, f):
    """The bending of f, typed, or the NonMatchingFaces it raises."""
    try:
        return {k: _typed(v) for k, v in bend(f).items()}
    except NonMatchingFaces as err:
        return "NonMatchingFaces", str(err)


@settings(max_examples=80, deadline=None)
@given(st.one_of(pw_functions(), continuous_functions()))
def test_integer_bending_matches_fraction_reference(f):
    """Random pieces mostly disagree on some wall; both routes must then
    raise on the same wall vertex, and otherwise agree value and type."""
    assert _bending_or_refusal(bending_parameters, f) == \
        _bending_or_refusal(bending_reference, f)


def _shear(qm, k, transpose):
    """S^T Q S for the shear S = [[1, k], [0, 1]] or its transpose."""
    s = [[1, 0], [k, 1]] if transpose else [[1, k], [0, 1]]
    sq = [[sum(s[t][i] * qm[t][j] for t in range(2)) for j in range(2)]
          for i in range(2)]
    return [[sum(sq[i][t] * s[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)]


@pytest.mark.parametrize("qm, window", [
    (_shear(base, k, transpose), 16)
    for base in ([[2, 1], [1, 2]], [[3, 1], [1, 5]], [[4, -1], [-1, 3]],
                 [[7, 3], [3, 9]])
    for k in (1, 2) for transpose in (False, True)] + [
    (qm, 4) for qm in ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                       [[3, 1, 1], [1, 4, 2], [1, 2, 5]],
                       [[4, -1, 1], [-1, 5, 2], [1, 2, 6]],
                       [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])])
def test_integer_bending_of_sigma_matches_fraction_reference(qm, window):
    s = sigma_section(QuadraticForm(_obj(qm)), np.eye(len(qm), dtype=object),
                      window)
    assert _bending_or_refusal(bending_parameters, s) == \
        _bending_or_refusal(bending_reference, s)
    assert all(b[0] > 0 for b in bending_parameters(s).values())
