"""Twisted graded monoids from homogenized convex functions, Fourier
coset indices, the period-group action on monomials, dual complexes of
central fibers, and face quotients."""

import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropab.degeneration_monoids import (HomogenizedFunction,
                                         TwistedMonoidElement,
                                         central_fiber_complex,
                                         face_quotient, fourier_indices,
                                         fourier_reduce, lift_height,
                                         minimal_lift, star_cocycle,
                                         twisted_add, y_action_on_monomial)
from tropab.errors import (InconsistentData, NotAFace, NotInjective,
                           NotInvariant, OutsideSupport, RankMismatch,
                           TooLarge)
from tropab.exact_linalg import lattice_membership, rank, saturated_quotient
from tropab.pavings_pwl import (PwAffineFunction, ToricMonoid,
                                sigma_section)
from tropab.quadform_delaunay import (LatticePolytope, PeriodicPaving,
                                      QuadraticForm, delaunay_subdivision)

from oracles import (evaluate_reference, fourier_motzkin_projection,
                     homogenized, interp_half_square,
                     shifted_affine_reference)

F = Fraction


def _obj(m):
    return np.array(m, dtype=object)


I1 = _obj([[1]])
I2 = np.eye(2, dtype=object)
Q1 = QuadraticForm(I1)


@pytest.fixture(scope="module")
def phi1():
    return HomogenizedFunction(sigma_section(Q1, I1, 4))


# -- homogenization ---------------------------------------------------------

def test_homogenized_values_match_oracle(phi1):
    f = interp_half_square
    for d, x in [(1, 3), (2, 3), (2, -5), (3, 4), (5, 0), (0, 0)]:
        assert phi1.value(d, (x,)) == homogenized(f, d, x)


def test_homogenized_apex_is_strict(phi1):
    assert phi1.value(0, (0,)) == 0
    with pytest.raises(OutsideSupport):
        phi1.value(0, (1,))
    with pytest.raises(OutsideSupport):
        phi1.value(-1, (0,))


# -- the curvature cocycle and the twisted addition -------------------------

def test_star_cocycle_frozen_values(phi1):
    assert star_cocycle((1, (1,)), (1, (2,)), phi1) == 0
    assert star_cocycle((1, (0,)), (1, (2,)), phi1) == 1
    assert star_cocycle((1, (0,)), (1, (3,)), phi1) == 2


def test_cocycle_vanishes_within_a_cell(phi1):
    # adjacent lattice points span a Delaunay cell: no curvature
    for a in range(-3, 3):
        assert star_cocycle((1, (a,)), (1, (a + 1,)), phi1) == 0
        assert star_cocycle((1, (a,)), (1, (a,)), phi1) == 0


def test_twisted_add_and_heights(phi1):
    x = minimal_lift((1, (0,)), phi1)
    y = minimal_lift((1, (3,)), phi1)
    s = twisted_add(x, y, phi1)
    assert s == TwistedMonoidElement(2, (3,), (F(2),))
    # heights are superadditive by exactly the cocycle
    assert lift_height(s, phi1) == F(9, 2)
    assert lift_height(x, phi1) + lift_height(y, phi1) == F(9, 2) - 2 + \
        star_cocycle((1, (0,)), (1, (3,)), phi1)


def test_twisted_add_associative_and_commutative(phi1):
    els = [minimal_lift((1, (a,)), phi1) for a in range(-2, 3)]
    els += [TwistedMonoidElement(2, (1,), (F(5, 2),)),
            TwistedMonoidElement(0, (0,), (F(1),))]
    for x in els:
        for y in els:
            assert twisted_add(x, y, phi1) == twisted_add(y, x, phi1)
            for z in els[:4]:
                assert twisted_add(twisted_add(x, y, phi1), z, phi1) == \
                    twisted_add(x, twisted_add(y, z, phi1), phi1)


def test_free_module_decomposition(phi1):
    # every element is its minimal lift twisted by a degree-0 payload
    for el in [TwistedMonoidElement(1, (2,), (F(7, 3),)),
               TwistedMonoidElement(3, (-4,), (F(1, 2),))]:
        base = minimal_lift((el.degree, el.point), phi1)
        unit = TwistedMonoidElement(0, (0,), el.payload)
        assert twisted_add(base, unit, phi1) == el


@pytest.mark.parametrize("degree, point", [
    (1, (F(1, 2),)), (1, (1.7,)), (1.5, (0,))],
    ids=["half", "float", "degree"])
def test_a_non_integral_element_is_refused(degree, point):
    with pytest.raises(ValueError):
        TwistedMonoidElement(degree, point, (0,))


def test_a_non_integral_degree_is_refused_by_phi(phi1):
    for read in (lambda: phi1.value(F(3, 2), (3,)),
                 lambda: star_cocycle((1.5, (0,)), (1, (3,)), phi1),
                 lambda: minimal_lift((F(1, 2), (0,)), phi1)):
        with pytest.raises(ValueError):
            read()
    assert phi1.value(F(2), (3,)) == phi1.value(2, (3,)) == F(5, 2)


def test_integral_entries_of_other_types_become_ints():
    el = TwistedMonoidElement(F(2), (F(-3), np.int64(4)), (1,))
    assert (el.degree, el.point) == (2, (-3, 4))
    assert all(type(x) is int for x in (el.degree, *el.point))


@pytest.mark.parametrize("degree, point, field", [
    (-1, (0,), "degree"), (0, (1,), "point"), (2, (1, 2), "point"),
    (0, (0, 0), "point")])
def test_homogenized_refusals_name_their_field(phi1, degree, point, field):
    with pytest.raises((OutsideSupport, RankMismatch)) as err:
        phi1.value(degree, point)
    assert err.value.field == field


def test_a_rank_mismatch_in_twisted_add_names_the_point(phi1):
    x = TwistedMonoidElement(1, (0, 0), (0,))
    with pytest.raises(OutsideSupport) as err:
        twisted_add(x, x, phi1)
    assert (str(err.value), err.value.field) == ("rank mismatch", "point")


def _hexagonal_payloads(k):
    """c sigma in payload i, c = 1, -2/3, for sigma of the hexagonal form."""
    s = sigma_section(QuadraticForm(_obj([[2, 1], [1, 2]])), I2, 4)
    cs = [F(1), F(-2, 3)][:k]
    affs = [([[c * x for x in lin[0]] for c in cs], [c * const[0] for c in cs])
            for lin, const in s.cell_affines]
    return HomogenizedFunction(PwAffineFunction(
        s.paving, affs, [c * s.quasi_bilinear[0] for c in cs],
        [[0, 0] for _ in cs], payload_rank=k))


_elements = st.integers(0, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.just((0, 0)) if d == 0 else
    st.tuples(*[st.builds(F, st.integers(-12, 12), st.integers(1, 3))] * 2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), _elements, _elements)
@example(2, (0, (0, 0)), (1, (3, -1)))
@example(1, (2, (1, F(1, 3))), (0, (0, 0)))
def test_integer_cocycle_matches_three_values(k, a, b):
    """star_cocycle on integer numerators equals phi~(a) + phi~(b) -
    phi~(a + b) summed from phi.value, at degree 0, at integer and
    rational points, for payload rank 1 and 2."""
    phi = _hexagonal_payloads(k)
    s = (a[0] + b[0], tuple(x + y for x, y in zip(a[1], b[1])))
    va, vb, vs = (phi.value(*e) for e in (a, b, s))
    want = va + vb - vs if k == 1 else \
        tuple(p + q - t for p, q, t in zip(va, vb, vs))
    got = star_cocycle(a, b, phi)
    assert got == want
    assert type(got) is type(want)
    if k == 2:
        assert all(type(x) is F for x in got)


# -- Fourier indices --------------------------------------------------------

def test_fourier_indices_diagonal():
    reps, t = fourier_indices(2, 2 * I2)
    assert reps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert t.diag == (2, 2)


def test_fourier_indices_shear():
    reps, t = fourier_indices(2, _obj([[2, 1], [0, 2]]))
    assert reps == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert t.diag == (1, 4)


def test_fourier_indices_rejects_singular():
    with pytest.raises(NotInjective):
        fourier_indices(2, _obj([[1, 2], [2, 4]]))


def test_fourier_reduce_is_a_retraction():
    assert fourier_reduce((7,), _obj([[3]])) == (1,)
    assert fourier_reduce((-1,), _obj([[3]])) == (2,)
    m = _obj([[2, 1], [0, 2]])
    reps, _ = fourier_indices(2, m)
    for v in [(5, -3), (0, 0), (-7, 11)]:
        r = fourier_reduce(v, m)
        assert r in reps
        assert fourier_reduce(r, m) == r
        diff = tuple(a - b for a, b in zip(v, r))
        assert lattice_membership(m, diff)


# -- period action on monomials ---------------------------------------------

def test_y_action_frozen_example():
    a2 = _obj([[2, 1], [1, 2]])
    new_mu, q_exp, old = y_action_on_monomial((1, 0), (2, 3), (a2, a2))
    assert new_mu == (4, 4)
    assert q_exp == 1
    assert old == (2, 3)


def test_y_action_cocycle_identity():
    """A(l + m) - A(l) - A(m) = <l, phi_check m> (exponent level)."""
    a2 = _obj([[2, 1], [1, 2]])
    q = QuadraticForm(a2)
    for lam in [(1, 0), (2, -1), (0, 3)]:
        for mu in [(1, 1), (-2, 0)]:
            s = tuple(a + b for a, b in zip(lam, mu))
            lhs = F(q.value(s) - q.value(lam) - q.value(mu), 2)
            pair = sum(lam[i] * a2[i, j] * mu[j]
                       for i in range(2) for j in range(2))
            assert lhs == pair


def test_y_action_rejects_mismatched_pairing():
    a2 = _obj([[2, 1], [1, 2]])
    with pytest.raises(InconsistentData):
        y_action_on_monomial((1, 0), (0, 0), (a2, 2 * I2))


# -- central fiber complexes ------------------------------------------------

def test_three_torsion_fiber_is_a_triangle_cycle():
    pav = delaunay_subdivision(Q1, I1, 4)
    c = central_fiber_complex(pav, _obj([[3]]))
    assert c.component_count == 3
    assert [comp.vertices for comp in c.components] == [
        ((0,), (1,)), ((1,), (2,)), ((2,), (3,))]
    assert {(i, j) for i, j, _ in c.incidences} == {(0, 1), (0, 2), (1, 2)}


def test_principal_fiber_is_one_component_self_glued():
    pav = delaunay_subdivision(Q1, I1, 4)
    c = central_fiber_complex(pav, I1)
    assert c.component_count == 1
    assert c.incidences == ((0, 0, ((0,),)),)


def test_square_fiber_two_self_incidences():
    sq = delaunay_subdivision(QuadraticForm(I2), I2, 4)
    c = central_fiber_complex(sq, I2)
    assert c.component_count == 1
    assert c.incidences == ((0, 0, ((0, 0), (0, 1))),
                            (0, 0, ((0, 0), (1, 0))))


def test_fiber_requires_invariant_lattice():
    coarse = PeriodicPaving(1, _obj([[2]]),
                            [LatticePolytope(((0,), (1,))),
                             LatticePolytope(((1,), (2,)))], 3)
    with pytest.raises(NotInvariant):
        central_fiber_complex(coarse, I1)


# -- face quotients ---------------------------------------------------------

def test_face_quotient_by_the_trivial_face(phi1):
    nat = ToricMonoid.nonnegative_orthant(1)
    fq = face_quotient(nat, [(1,)], phi1.base)
    assert fq.quotient_monoid.rank == 1
    assert fq.admissible
    assert fq.coarsened_paving == phi1.base.paving


def test_face_quotient_by_everything(phi1):
    nat = ToricMonoid.nonnegative_orthant(1)
    fq = face_quotient(nat, [], phi1.base)
    assert fq.quotient_monoid.rank == 0
    assert not fq.admissible
    assert fq.coarsened_paving is None
    assert fq.pushed_function.evaluate((F(1, 2),)) == ()


def test_face_quotient_by_everything_pushes_to_payload_rank_zero(phi1):
    nat = ToricMonoid.nonnegative_orthant(1)
    pushed = face_quotient(nat, [], phi1.base).pushed_function
    assert isinstance(pushed, PwAffineFunction)
    assert pushed.payload_rank == 0
    x = (F(7, 3),)
    assert pushed.evaluate(x) == evaluate_reference(pushed, x) == ()
    assert pushed.affine_on_cell(0, (3,)) == \
        shifted_affine_reference(pushed, 0, (3,)) == ((), ())
    assert HomogenizedFunction(pushed).value(2, x) == ()


def test_face_quotient_rejects_non_face(phi1):
    nat = ToricMonoid.nonnegative_orthant(1)
    with pytest.raises(NotAFace):
        face_quotient(nat, [(-1,)], phi1.base)
    with pytest.raises(NotAFace):
        face_quotient(ToricMonoid.nonnegative_orthant(2), [(1, 0)],
                      phi1.base)


@pytest.mark.parametrize("face", [(1, 0), (0, 0)], ids=["line", "all"])
def test_face_quotient_refuses_a_monoid_that_is_not_sharp(face):
    """P = {x >= 0} in Z^2 holds the line x = 0, so it has no Hilbert
    basis to generate its faces: P/F is N for the face x = 0 and 0 for P
    itself, where the quotient read from the empty basis would be P of
    rank 2 both times.  P is refused, on the field ``monoid``."""
    with pytest.raises(NotAFace) as e:
        face_quotient(ToricMonoid(2, [(1, 0)]), [face], _payload_sigma(2))
    assert e.value.field == "monoid"


def test_face_quotient_vector_payload(phi1):
    # payload (x^2/2-interpolation, globally affine x): admissibility
    # depends on which coordinate survives the quotient
    pav = phi1.base.paving
    f2 = PwAffineFunction(
        pav, [(((F(1, 2),), (F(1),)), (F(0), F(0)))],
        [_obj([[1]]), _obj([[0]])], [(F(0),), (F(2),)], payload_rank=2)
    nat2 = ToricMonoid.nonnegative_orthant(2)
    kills_convex = face_quotient(nat2, [(1, 0)], f2)
    assert kills_convex.quotient_monoid.rank == 1
    assert kills_convex.admissible
    kills_flat = face_quotient(nat2, [(0, 1)], f2)
    assert not kills_flat.admissible
    assert kills_flat.coarsened_paving is None


def _payload_sigma(k):
    """k copies of sigma of [[1]] as one function of payload rank k."""
    pav = sigma_section(Q1, I1, 4).paving
    return PwAffineFunction(pav, [(((F(1, 2),),) * k, (F(0),) * k)],
                            [I1] * k, [(F(0),)] * k, payload_rank=k)


def _face_generators(p, face):
    """The Hilbert basis elements of P on which the functional face
    vanishes: the generators of the face F it cuts out."""
    return [g for g in p.hilbert_basis() if not sum(map(mul, face, g))]


def _quotient_by_elimination(p, face):
    """The functionals of P/F by the Fourier-Motzkin oracle, with the
    number of rows it combined.  F = {0} leaves P as it is."""
    face_gens = _face_generators(p, face)
    if not face_gens:
        return list(p.functionals), 0
    _, sec, sat = saturated_quotient(list(zip(*face_gens)))
    return fourier_motzkin_projection(p.functionals, sec.tolist(),
                                      sat.tolist())


def _seeded_monoid(seed, k):
    """A sharp toric monoid of rank k with a nonempty Hilbert basis, from
    k to k + 2 functionals with entries in [-2, 2], drawn from the
    seed."""
    rng = random.Random(seed)
    while True:
        funcs = [tuple(rng.randint(-2, 2) for _ in range(k))
                 for _ in range(rng.randint(k, k + 2))]
        p = ToricMonoid(k, funcs)
        try:
            if p.hilbert_basis():
                return p
        except TooLarge:
            pass


@pytest.mark.parametrize("k", [2, 3])
def test_face_quotient_keeps_the_facets_through_the_face(k):
    """Every face of 25 seeded monoids cut out by no functional, by the
    first one, by the sum of the first two and by the sum of all: the
    quotient functionals are those of the Fourier-Motzkin oracle."""
    phi = _payload_sigma(k)
    for seed in range(25):
        p = _seeded_monoid(seed, k)
        fs = p.functionals
        for face in [(0,) * k, fs[0], tuple(map(sum, zip(*fs[:2]))),
                     tuple(map(sum, zip(*fs)))]:
            got = face_quotient(p, [face], phi).quotient_monoid
            want, _ = _quotient_by_elimination(p, face)
            assert list(got.functionals) == want, (seed, fs, face)
            assert got.rank == k - rank(_face_generators(p, face))


@pytest.mark.parametrize("functionals, face, want", [
    # the facet u_0 = 0, with saturated basis (1, 0, -1), (-4, 2, 3)
    ([(2, 1, 2), (1, 2, 0), (1, -2, 2)], (2, 1, 2), [(-1,)]),
    # the facet u_0 = 0, with saturated basis (1, 0, 1), (0, -2, 1)
    ([(-2, 1, 2), (1, 2, 0), (0, 2, 1), (1, 2, -2), (1, -2, -2)],
     (-2, 1, 2), [(1,)]),
], ids=["simplicial", "five-facets"])
def test_a_face_basis_of_mixed_signs_combines_rows_that_do_not_survive(
        functionals, face, want):
    """A 2-dimensional face whose saturated basis has entries of both
    signs: the elimination combines rows, none of which survives, and
    the facet rule gives its answer."""
    p = ToricMonoid(3, functionals)
    _, _, sat = saturated_quotient(list(zip(*_face_generators(p, face))))
    assert sat.shape == (3, 2)
    assert any(min(col) < 0 < max(col) for col in sat.T.tolist())
    rows, combined = _quotient_by_elimination(p, face)
    assert combined > 0
    assert rows == want
    got = face_quotient(p, [face], _payload_sigma(3)).quotient_monoid
    assert (got.rank, list(got.functionals)) == (1, want)
