"""Delaunay subdivisions of lattices under positive definite forms, the
empty-sphere certificate, and second-Voronoi cone membership."""

from fractions import Fraction
from itertools import combinations, islice, product
from math import ceil, floor, isqrt
from operator import mul
import random

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from tropab import quadform_delaunay
from tropab.errors import (DomainError, InvalidPaving, NotPositiveDefinite,
                           RankMismatch, TooLarge, WindowTooSmall)
from tropab.exact_linalg import (LatticeCoordinates, frac_det, glxy_act,
                                 rank, row_reduce)
from tropab.pavings_pwl import sigma_section
from tropab.quadform_delaunay import (LatticePolytope, PeriodicPaving,
                                      QuadraticForm, delaunay_subdivision,
                                      empty_sphere_check, secondary_cone,
                                      voronoi_cone_contains)

import oracles
from oracles import (brute_force_delaunay_cells, circumcenter,
                     ellipsoid_window, empty_sphere_delaunay_cells,
                     empty_sphere_reference, frac_solve, locate_by_scan,
                     lower_hull_reference, q_dist, voronoi_cone_reference)


def _obj(m):
    return np.array(m, dtype=object)


I2 = np.eye(2, dtype=object)
A2 = QuadraticForm(_obj([[2, 1], [1, 2]]))
IDENT = QuadraticForm(I2)


def pd2_forms():
    """Random positive definite 2x2 integer forms."""
    return st.tuples(st.integers(1, 6), st.integers(1, 6),
                     st.integers(-4, 4)).filter(
        lambda t: t[0] * t[1] > t[2] * t[2]).map(
        lambda t: QuadraticForm(_obj([[t[0], t[2]], [t[2], t[1]]])))


# -- QuadraticForm basics ---------------------------------------------------

def test_form_value_and_definiteness():
    assert A2.value((1, -1)) == 2
    assert A2.value((1, 1)) == 6
    assert A2.is_positive_definite()
    assert not QuadraticForm(_obj([[1, 2], [2, 1]])).is_positive_definite()


def test_form_algebra():
    s = A2 + IDENT
    assert (s.matrix == _obj([[3, 1], [1, 3]])).all()
    assert (A2.scaled(3).matrix == 3 * A2.matrix).all()


def test_form_matrix_is_a_read_only_copy():
    m = _obj([[2, 1], [1, 2]])
    q = QuadraticForm(m)
    with pytest.raises(ValueError):
        q.matrix[0, 0] = 5
    m[0, 0] = 5
    assert q.matrix[0, 0] == 2
    assert (q + q).matrix.flags.writeable is False


# -- the pavings a form keeps -----------------------------------------------

def test_the_callers_paving_is_reused(monkeypatch):
    q = QuadraticForm(_obj([[2, 1], [1, 2]]))
    pav = delaunay_subdivision(q, I2, 4)

    def superbase(*args):
        raise AssertionError("the closed form ran again")

    monkeypatch.setattr(quadform_delaunay, "_obtuse_superbase", superbase)
    assert sigma_section(q, I2, 4).paving is pav
    assert delaunay_subdivision(q, _obj([[1, 0], [0, 1]]), 4,
                                shift=(0, 0)) is pav
    assert voronoi_cone_contains(pav, q)


@pytest.mark.parametrize("pb, window, shift", [
    (I2, 5, None),
    (_obj([[2, 1], [0, 1]]), 4, None),
    (I2, 4, (Fraction(1, 3), Fraction(1, 2))),
], ids=["window", "basis", "shift"])
def test_other_arguments_get_their_own_paving(pb, window, shift):
    q = QuadraticForm(_obj([[2, 1], [1, 3]]))
    first = delaunay_subdivision(q, I2, 4)
    other = delaunay_subdivision(q, pb, window, shift)
    assert other is not first
    assert delaunay_subdivision(q, pb, window, shift) is other
    assert delaunay_subdivision(q, I2, 4) is first
    fresh = delaunay_subdivision(QuadraticForm(_obj([[2, 1], [1, 3]])),
                                 pb, window, shift)
    assert (other.window, [c.vertices for c in other.cells]) == \
        (fresh.window, [c.vertices for c in fresh.cells])
    assert other == fresh


def test_a_refusal_is_not_kept():
    skew = QuadraticForm(_obj([[1, 3], [3, 10]]))
    for _ in range(2):
        with pytest.raises(WindowTooSmall) as err:
            delaunay_subdivision(skew, I2, 1)
        assert err.value.field == "window"
    pav = delaunay_subdivision(skew, I2, 8)
    assert sum(c.volume() for c in pav.cells) == 1
    with pytest.raises(WindowTooSmall):
        delaunay_subdivision(skew, I2, 1)


# -- Delaunay, frozen examples ----------------------------------------------

def test_rank_one_delaunay_is_unit_intervals():
    q = QuadraticForm(_obj([[2]]))
    pav = delaunay_subdivision(q, _obj([[1]]), 3)
    assert [c.vertices for c in pav.cells] == [((0,), (1,))]


def test_square_form_delaunay_is_unit_squares():
    pav = delaunay_subdivision(IDENT, I2, 4)
    assert [c.vertices for c in pav.cells] == [((0, 0), (0, 1),
                                               (1, 0), (1, 1))]
    assert not pav.is_simplicial()
    assert len(pav.walls()) == 2
    assert pav.vertex_orbits() == {(0, 0)}


def test_hexagonal_form_delaunay_is_two_triangles():
    pav = delaunay_subdivision(A2, I2, 4)
    assert [c.vertices for c in pav.cells] == [
        ((0, 0), (0, 1), (1, 0)), ((0, 0), (1, -1), (1, 0))]
    assert pav.is_simplicial()
    assert len(pav.walls()) == 3
    assert sum(c.volume() for c in pav.cells) == 1


def test_delaunay_respects_coarser_period():
    # same form, index-4 period lattice: one orbit per translate class
    pav = delaunay_subdivision(IDENT, 2 * I2, 4)
    assert len(pav.cells) == 4
    assert sum(c.volume() for c in pav.cells) == 4


def test_delaunay_scaling_invariance():
    assert delaunay_subdivision(A2.scaled(5), I2, 4) == \
        delaunay_subdivision(A2, I2, 4)


def test_delaunay_rejects_indefinite_form():
    with pytest.raises(NotPositiveDefinite):
        delaunay_subdivision(QuadraticForm(_obj([[1, 0], [0, 0]])), I2, 3)


def test_delaunay_window_too_small():
    skew = QuadraticForm(_obj([[1, 3], [3, 10]]))
    with pytest.raises(WindowTooSmall) as err:
        delaunay_subdivision(skew, I2, 1)
    assert err.value.field == "window"
    # window 2, the least accepted, gives the cells of every larger one
    pav = delaunay_subdivision(skew, I2, 2)
    assert pav.window == 2
    assert [c.vertices for c in pav.cells] == \
        [c.vertices for c in delaunay_subdivision(skew, I2, 8).cells]
    assert sum(c.volume() for c in pav.cells) == 1


def test_shifted_sites_translate_the_paving():
    shift = (Fraction(1, 3), Fraction(1, 2))
    pav = delaunay_subdivision(A2, I2, 4, shift=shift)
    assert [c.vertices for c in pav.cells] == [
        ((Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 2)),
         (Fraction(4, 3), Fraction(1, 2))),
        ((Fraction(1, 3), Fraction(1, 2)), (Fraction(4, 3), Fraction(-1, 2)),
         (Fraction(4, 3), Fraction(1, 2)))]
    assert [c.vertices for c in pav.cells] == [
        c.translated(shift).vertices
        for c in delaunay_subdivision(A2, I2, 4).cells]


def test_rational_form_paves_like_its_integer_multiple():
    third = QuadraticForm(_obj([[Fraction(2, 3), Fraction(1, 3)],
                                [Fraction(1, 3), Fraction(2, 3)]]))
    assert delaunay_subdivision(third, I2, 4) == \
        delaunay_subdivision(A2, I2, 4)


# -- coordinate types, shifted lattices and coarser period bases ------------

@pytest.mark.parametrize("qm, pb, window", [
    ([[1]], [[1]], 3),
    ([[2, 1], [1, 2]], [[1, 0], [0, 1]], 4),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4),
    ([[14, -25], [-25, 45]], [[1, 0], [0, 1]], 16),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
     [[2, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
])
def test_an_unshifted_paving_is_on_python_ints(qm, pb, window, monkeypatch):
    """No shift, a zero one or an integral Fraction one: every coordinate
    of every cell, wall and vertex orbit is an int, never a Fraction, and
    so is every vertex the subdivision hands canonical_cell on the way
    (LatticePolytope would turn an integral Fraction back into an int)."""
    handed = set()
    canonical_cell = PeriodicPaving.canonical_cell

    def recording(self, vertices):
        vertices = list(vertices)
        handed.update(type(x) for v in vertices for x in v)
        return canonical_cell(self, vertices)
    monkeypatch.setattr(PeriodicPaving, "canonical_cell", recording)
    r = len(qm)
    for shift in (None, (0,) * r, (Fraction(1),) + (Fraction(0),) * (r - 1)):
        pav = delaunay_subdivision(QuadraticForm(_obj(qm)), _obj(pb), window,
                                   shift=shift)
        points = [v for c in pav.cells for v in c.vertices]
        points += [v for key in pav.walls() for v in key]
        points += list(pav.vertex_orbits())
        assert {type(x) for v in points for x in v} == {int}
    assert handed == {int}


F = Fraction
HALF_THIRD = (F(1, 2), F(1, 3))


def test_a_shifted_hexagonal_lattice_keeps_its_cells_and_walls():
    pav = delaunay_subdivision(A2, I2, 4, shift=HALF_THIRD)
    assert [c.vertices for c in pav.cells] == [
        ((F(1, 2), F(1, 3)), (F(1, 2), F(4, 3)), (F(3, 2), F(1, 3))),
        ((F(1, 2), F(1, 3)), (F(3, 2), F(-2, 3)), (F(3, 2), F(1, 3)))]
    assert sorted(pav.walls().items()) == [
        (((F(1, 2), F(1, 3)), (F(1, 2), F(4, 3))),
         [(0, (0, 0)), (1, (-1, 1))]),
        (((F(1, 2), F(1, 3)), (F(3, 2), F(-2, 3))),
         [(0, (0, -1)), (1, (0, 0))]),
        (((F(1, 2), F(1, 3)), (F(3, 2), F(1, 3))),
         [(0, (0, 0)), (1, (0, 0))])]
    coarse = delaunay_subdivision(A2, _obj([[2, 1], [0, 1]]), 4,
                                  shift=HALF_THIRD)
    assert [c.vertices for c in coarse.cells] == [
        ((F(1, 2), F(1, 3)), (F(1, 2), F(4, 3)), (F(3, 2), F(1, 3))),
        ((F(1, 2), F(1, 3)), (F(3, 2), F(-2, 3)), (F(3, 2), F(1, 3))),
        ((F(3, 2), F(1, 3)), (F(3, 2), F(4, 3)), (F(5, 2), F(1, 3))),
        ((F(3, 2), F(1, 3)), (F(5, 2), F(-2, 3)), (F(5, 2), F(1, 3)))]


@pytest.mark.parametrize("shift", [(1, 2, 3), (1,), ()],
                         ids=["long", "short", "empty"])
def test_a_shift_of_the_wrong_length_is_refused(shift):
    with pytest.raises(RankMismatch) as err:
        delaunay_subdivision(A2, I2, 4, shift=shift)
    assert err.value.field == "shift"
    assert "length %d" % len(shift) in str(err.value)


def test_a_fractional_period_basis_is_refused_not_truncated():
    with pytest.raises(ValueError, match="^non-integer entry 2.9$"):
        delaunay_subdivision(QuadraticForm([[2]]), [[2.9]], 4)


def test_a_coarser_period_basis_keeps_its_cells_sigma_and_fiber():
    from tropab.degeneration_monoids import central_fiber_complex
    from tropab.pavings_pwl import bending_parameters

    pb = _obj([[2, 1], [0, 1]])
    pav = delaunay_subdivision(A2, pb, 4)
    assert [c.vertices for c in pav.cells] == [
        ((0, 0), (0, 1), (1, 0)), ((0, 0), (1, -1), (1, 0)),
        ((1, 0), (1, 1), (2, 0)), ((1, 0), (2, -1), (2, 0))]
    s = sigma_section(A2, pb, 4)
    assert s.paving is pav
    assert s.cell_affines == (
        (((F(1), F(1)),), (F(0),)), (((F(1), F(0)),), (F(0),)),
        (((F(3), F(2)),), (F(-2),)), (((F(3), F(1)),), (F(-2),)))
    assert {type(x) for lin, const in s.cell_affines
            for x in lin[0] + const} == {Fraction}
    assert sorted(bending_parameters(s).items()) == [
        (((0, 0), (0, 1)), (F(1),)), (((0, 0), (1, -1)), (F(1),)),
        (((0, 0), (1, 0)), (F(1),)), (((1, 0), (1, 1)), (F(1),)),
        (((1, 0), (2, -1)), (F(1),)), (((1, 0), (2, 0)), (F(1),))]
    fib = central_fiber_complex(pav, 2 * I2)
    assert [c.vertices for c in fib.components] == [
        ((0, 0), (0, 1), (1, 0)), ((1, 1), (1, 2), (2, 1)),
        ((0, 0), (1, -1), (1, 0)), ((1, 1), (2, 0), (2, 1)),
        ((1, 0), (1, 1), (2, 0)), ((0, 1), (0, 2), (1, 1)),
        ((1, 0), (2, -1), (2, 0)), ((0, 1), (1, 0), (1, 1))]
    assert fib.incidences == (
        (0, 2, ((0, 0), (1, 0))), (0, 3, ((0, 0), (0, 1))),
        (0, 7, ((0, 1), (1, 0))), (1, 2, ((1, 1), (1, 2))),
        (1, 3, ((1, 1), (2, 1))), (1, 6, ((1, 0), (2, -1))),
        (2, 5, ((0, 0), (1, -1))), (3, 4, ((1, 1), (2, 0))),
        (4, 6, ((1, 0), (2, 0))), (4, 7, ((1, 0), (1, 1))),
        (5, 6, ((0, 1), (0, 2))), (5, 7, ((0, 1), (1, 1))))
    same = central_fiber_complex(pav, pb)
    assert [c.vertices for c in same.components] == \
        [c.vertices for c in pav.cells]
    assert same.incidences == (
        (0, 1, ((0, 0), (0, 1))), (0, 1, ((0, 0), (1, 0))),
        (0, 3, ((1, 0), (2, -1))), (1, 2, ((0, 0), (1, -1))),
        (2, 3, ((1, 0), (1, 1))), (2, 3, ((1, 0), (2, 0))))


# -- the closed form vs the windowed lower-hull reference --------------------

def _hull_matches_reference(qm, pb, window, shift=None, limit=None):
    """Every facet of lower_hull_reference over the window (the lattice
    points with period coordinates in [-window, window], moved by the
    shift) whose circumellipsoid has its bounding box inside the window
    is a cell of the closed form: every lattice point that could lie on
    or inside that ellipsoid is a site, so the facet is a Delaunay cell.
    The window is first widened until a translate of every closed-form
    cell's box fits.  The closed form's cells cover the covolume of the
    periods and, when the hull is walked to the end, every one of them
    is such a facet."""
    q = QuadraticForm(_obj(qm))
    r = q.rank
    shift = tuple(Fraction(x) for x in (shift or (0,) * r))
    pav = delaunay_subdivision(q, _obj(pb), window, shift)
    lat = pav.lattice
    inv_diag = [frac_solve(qm, [int(i == j) for j in range(r)])[i]
                for i in range(r)]

    def box(verts):
        """Period coordinates of the corners of the least box of lattice
        points p with p + shift around the circumellipsoid of verts."""
        verts = sorted(verts)
        centre = next(c for sub in combinations(verts, r + 1)
                      if (c := circumcenter(sub, qm)) is not None)
        radius = q_dist(qm, verts[0], centre)
        ranges = []
        for c, s, w in zip(centre, shift, inv_diag):
            c, t = c - s, radius * w    # (p - c)^2 <= t on the ellipsoid
            lo = floor(c) - isqrt(floor(t)) - 1
            hi = ceil(c) + isqrt(floor(t)) + 1
            while (c - lo) ** 2 > t:
                lo += 1
            while (hi - c) ** 2 > t:
                hi -= 1
            ranges.append((lo, hi))
        return [lat.coordinates(p) for p in product(*ranges)]

    def fits(corners, w):
        """Does some lattice translate of the corners lie in [-w, w]^r?"""
        return all(floor(w - max(cs)) >= ceil(-w - min(cs))
                   for cs in zip(*corners))

    boxes = [box(c.vertices) for c in pav.cells]
    while not all(fits(b, window) for b in boxes):
        window += 1
    spans = [window * sum(abs(x) for x in row) for row in lat.basis]
    sites = [tuple(a + b for a, b in zip(p, shift))
             for p in product(*(range(-s, s + 1) for s in spans))
             if max(abs(c) for c in lat.coordinates(p)) <= window]
    cells = {c.vertices for c in pav.cells}
    seen = set()
    ref = lower_hull_reference(sites, {x: q.value(x) / 2 for x in sites}, r)
    for eq, _ in islice(ref, limit):
        if all(abs(x) <= window for p in box(eq) for x in p):
            cell = pav.canonical_cell(eq).vertices
            assert cell in cells, cell
            seen.add(cell)
    assert sum(c.volume() for c in pav.cells) == abs(frac_det(_obj(pb)))
    if limit is None:
        assert seen == cells


@settings(max_examples=10, deadline=None)
@given(pd2_forms(), st.integers(-2, 2), st.booleans())
def test_integer_hull_matches_reference_on_sheared_forms(q, k, transpose):
    u = _obj([[1, 0], [k, 1]] if transpose else [[1, k], [0, 1]])
    _hull_matches_reference(glxy_act(u, q.matrix, I2).tolist(), I2, 3)


@pytest.mark.parametrize("qm, pb, window, shift, limit", [
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], np.eye(3, dtype=object), 2,
     None, 60),
    ([[4, -1, 2], [-1, 3, 0], [2, 0, 5]], np.eye(3, dtype=object), 2,
     None, 60),
    ([[2, 1], [1, 2]], I2, 3, (Fraction(1, 3), Fraction(1, 2)), None),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 2,
     (Fraction(1, 4), Fraction(-2, 7)), None),
    ([[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
     I2, 3, None, None),
    ([[Fraction(1, 2), Fraction(1, 5)], [Fraction(1, 5), 1]], I2, 3,
     (Fraction(1, 2), 0), None),
], ids=["A3", "reduced-rank3", "shifted", "shifted-basis", "rational",
        "rational-shifted"])
def test_integer_hull_matches_reference(qm, pb, window, shift, limit):
    _hull_matches_reference(qm, pb, window, shift, limit)


# -- the closed form on skewed and rank-3 forms -----------------------------

SHEARED = [[14, -25], [-25, 45]]
PARALLELOGRAM = ((0, 0), (2, 1), (5, 3), (7, 4))


def test_sheared_form_gives_the_parallelogram():
    pav = delaunay_subdivision(QuadraticForm(_obj(SHEARED)), I2, 5)
    assert [c.vertices for c in pav.cells] == [PARALLELOGRAM]


@pytest.mark.parametrize("qm, wide", [(SHEARED, 5), ([[1, 3], [3, 10]], 3)],
                         ids=["sheared", "skew"])
def test_every_window_gives_the_same_cells(qm, wide):
    """Below ``wide`` the window holds no translate of some cell orbit;
    it is a label all the same, and every window gives the cells of
    ``wide``."""
    cells = [c.vertices for c in
             delaunay_subdivision(QuadraticForm(_obj(qm)), I2, wide).cells]
    for window in (2, wide - 1, 10 ** 9):
        pav = delaunay_subdivision(QuadraticForm(_obj(qm)), I2, window)
        assert pav.window == window
        assert [c.vertices for c in pav.cells] == cells


def test_rank_four_is_refused():
    i4 = np.eye(4, dtype=object)
    with pytest.raises(TooLarge) as err:
        delaunay_subdivision(QuadraticForm(i4), i4, 2)
    assert err.value.field == "q"


def reduced_pd3_forms():
    """Reduced positive definite 3x3 forms, |q_ij| <= q_ii / 2."""
    def build(t):
        d, off = t[:3], t[3:]
        q = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
        for (i, j), x in zip(((0, 1), (0, 2), (1, 2)), off):
            lim = min(d[i], d[j]) // 2
            q[i][j] = q[j][i] = max(-lim, min(lim, x))
        return q
    return st.tuples(*[st.integers(2, 8)] * 3,
                     *[st.integers(-4, 4)] * 3).map(build).filter(
        lambda q: frac_det(_obj(q)) > 0)


def elementary_shears3():
    """Products of up to two elementary matrices I + k E_ij, |k| <= 2."""
    def build(steps):
        u = [[int(i == j) for j in range(3)] for i in range(3)]
        for i, j, k in steps:
            if i != j:
                u = [[u[a][b] + k * (a == i) * u[j][b] for b in range(3)]
                     for a in range(3)]
        return u
    return st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(-2, 2)), max_size=2).map(build)


@settings(max_examples=10, deadline=None)
@given(reduced_pd3_forms(), elementary_shears3())
@example([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
@example([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
def test_closed_form_matches_empty_sphere_oracle_in_rank_3(qm, u):
    """On u^T Q u, the closed form's cells are the cells of empty
    circumellipsoids found from the Voronoi-relevant vectors."""
    sheared = (_obj(u).T @ _obj(qm) @ _obj(u)).tolist()
    i3 = np.eye(3, dtype=object)
    pav = delaunay_subdivision(QuadraticForm(_obj(sheared)), i3, 20)
    assert {c.vertices for c in pav.cells} == \
        {pav.canonical_cell(c).vertices
         for c in empty_sphere_delaunay_cells(sheared)}


# -- Delaunay vs the exhaustive lower-hull oracle ---------------------------

def reduced_pd2_forms():
    """Reduced positive binary forms 2|c| <= a <= b: their Delaunay
    cells fit inside unit squares, so a small oracle window is exact."""
    return st.tuples(st.integers(1, 5), st.integers(0, 4),
                     st.integers(-2, 2)).map(
        lambda t: (t[0], t[0] + t[1], t[2])).filter(
        lambda t: 2 * abs(t[2]) <= t[0]).map(
        lambda t: QuadraticForm(_obj([[t[0], t[2]], [t[2], t[1]]])))


def _matches_oracle(q, window=2):
    pav = delaunay_subdivision(q, I2, 6)
    reps = {c.vertices for c in pav.cells}
    interior = set()
    for cell in brute_force_delaunay_cells(
            [[int(x) for x in row] for row in q.matrix], window):
        if all(abs(x) < window for v in cell for x in v):
            interior.add(pav.canonical_cell(sorted(cell)).vertices)
    return interior == reps


def test_delaunay_matches_brute_force_hexagonal():
    assert _matches_oracle(A2)


def test_delaunay_matches_brute_force_square():
    assert _matches_oracle(IDENT)


@settings(max_examples=8, deadline=None)
@given(reduced_pd2_forms())
def test_delaunay_matches_brute_force_random(q):
    assert _matches_oracle(q)


# -- empty sphere -----------------------------------------------------------

def test_empty_sphere_frozen_cases():
    assert empty_sphere_check(((0, 0), (0, 1), (1, 0)), A2, 3)
    assert empty_sphere_check(((0, 0), (0, 1), (1, 0), (1, 1)), IDENT, 3)
    # the unit square is not cospherical for the hexagonal form
    assert not empty_sphere_check(((0, 0), (0, 1), (1, 0), (1, 1)), A2, 3)
    # a doubled interval has a lattice point strictly inside its sphere
    one = QuadraticForm(_obj([[1]]))
    assert not empty_sphere_check(((0,), (2,)), one, 3)


def test_empty_sphere_box_follows_the_cell():
    # the doubled triangle holds (1, 0), (0, 1) and (1, 1) in its
    # circumellipse, wherever it is translated
    assert not empty_sphere_check(((0, 0), (2, 0), (0, 2)), A2, 3)
    assert not empty_sphere_check(((10, 10), (12, 10), (10, 12)), A2, 3)


def test_empty_sphere_answers_a_huge_window_as_window_3():
    for cell in (((0, 0), (0, 1), (1, 0)), ((0, 0), (2, 0), (0, 2))):
        assert empty_sphere_check(cell, A2, 10 ** 9) == \
            empty_sphere_check(cell, A2, 3)


@pytest.mark.parametrize("window", [2, 3, 5, 10 ** 9])
def test_empty_sphere_sees_the_far_vertex_of_a_long_cell(window):
    """The fourth vertex (7, 4) of the parallelogram cell of SHEARED lies
    on the circumellipse of the other three, far from its centre: a
    window box around the centre misses it below window 5."""
    q = QuadraticForm(_obj(SHEARED))
    assert not empty_sphere_check(PARALLELOGRAM[:3], q, window)
    assert empty_sphere_check(PARALLELOGRAM, q, window)


def test_hexagonal_circumcenter_is_barycentric():
    qm = [[2, 1], [1, 2]]
    c = circumcenter([(0, 0), (0, 1), (1, 0)], qm)
    assert c == [Fraction(1, 3), Fraction(1, 3)]
    r = q_dist(qm, (0, 0), c)
    for p in [(1, 1), (-1, 0), (0, -1), (1, -1)]:
        assert q_dist(qm, p, c) > r


@settings(max_examples=10, deadline=None)
@given(pd2_forms())
def test_every_delaunay_cell_passes_empty_sphere(q):
    pav = delaunay_subdivision(q, I2, 6)
    for c in pav.cells:
        assert empty_sphere_check(c.vertices, q, 5)


@st.composite
def cells_and_parts(draw):
    """A Delaunay cell of a rank-2 form or of a sheared reduced rank-3
    form, as it is, as a subset of its vertices (lower-dimensional
    sub-simplices included), or doubled."""
    if draw(st.booleans()):
        q = draw(pd2_forms())
    else:
        qm, u = draw(reduced_pd3_forms()), _obj(draw(elementary_shears3()))
        q = QuadraticForm(u.T @ _obj(qm) @ u)
    pav = delaunay_subdivision(q, np.eye(q.rank, dtype=object), 20)
    cell = draw(st.sampled_from(pav.cells)).vertices
    kind = draw(st.sampled_from(["cell", "part", "doubled"]))
    if kind == "part":
        cell = tuple(draw(st.lists(st.sampled_from(cell), min_size=1,
                                   max_size=len(cell), unique=True)))
    elif kind == "doubled":
        cell = tuple(tuple(2 * x for x in v) for v in cell)
    return cell, q


@settings(max_examples=60, deadline=None)
@given(cells_and_parts())
def test_empty_sphere_matches_the_window_reference(case):
    """The ellipsoid enumeration answers as the window scan at a window
    that holds the whole circumellipsoid, whatever window it is given."""
    cell, q = case
    want = empty_sphere_reference(cell, q, ellipsoid_window(cell, q))
    assert empty_sphere_check(cell, q, 2) == want


# -- second-Voronoi cones ---------------------------------------------------

def test_voronoi_cone_frozen_cases():
    tri = delaunay_subdivision(A2, I2, 4)
    sq = delaunay_subdivision(IDENT, I2, 4)
    assert voronoi_cone_contains(tri, A2)
    assert voronoi_cone_contains(sq, IDENT)
    # the triangulation refines the square paving, not conversely
    assert voronoi_cone_contains(tri, IDENT)
    assert not voronoi_cone_contains(sq, A2)


def test_voronoi_cone_boundary_rays():
    tri = delaunay_subdivision(A2, I2, 4)
    sq = delaunay_subdivision(IDENT, I2, 4)
    zero = QuadraticForm(np.zeros((2, 2), dtype=object))
    assert voronoi_cone_contains(sq, zero)
    assert voronoi_cone_contains(tri, zero)
    # rank-one boundary forms, on the boundary of both cones
    ax = QuadraticForm(_obj([[1, 0], [0, 0]]))
    diag = QuadraticForm(_obj([[1, 1], [1, 1]]))
    assert voronoi_cone_contains(sq, ax)
    assert voronoi_cone_contains(tri, ax)
    assert voronoi_cone_contains(tri, diag)
    assert not voronoi_cone_contains(sq, diag)
    # rank 3, two-dimensional kernels; that of (x+y)^2 is not spanned by
    # coordinate vectors
    i3 = np.eye(3, dtype=object)
    cube = delaunay_subdivision(QuadraticForm(i3), i3, 3)
    assert voronoi_cone_contains(
        cube, QuadraticForm(_obj([[1, 0, 0], [0, 0, 0], [0, 0, 0]])))
    assert not voronoi_cone_contains(
        cube, QuadraticForm(_obj([[1, 1, 0], [1, 1, 0], [0, 0, 0]])))


def test_voronoi_cone_rejects_non_psd():
    sq = delaunay_subdivision(IDENT, I2, 4)
    assert not voronoi_cone_contains(sq, QuadraticForm(-I2))
    assert not voronoi_cone_contains(sq, QuadraticForm(_obj([[1, 2],
                                                             [2, 1]])))


@settings(max_examples=10, deadline=None)
@given(pd2_forms())
def test_own_cone_membership_random(q):
    pav = delaunay_subdivision(q, I2, 6)
    assert voronoi_cone_contains(pav, q)
    assert voronoi_cone_contains(pav, q.scaled(Fraction(7, 2)))


def test_voronoi_cone_ignores_the_window():
    """The parallelogram paving of SHEARED, carried at a window that
    holds none of its translates: the cone rows do not pave again."""
    q = QuadraticForm(_obj(SHEARED))
    pav = PeriodicPaving(2, I2, delaunay_subdivision(q, I2, 5).cells, 2)
    assert voronoi_cone_contains(pav, q)
    assert voronoi_cone_contains(pav, q.scaled(3))


def test_voronoi_cone_refuses_a_holed_paving():
    kept = delaunay_subdivision(A2, I2, 4).cells[0]
    holed = PeriodicPaving(2, I2, [kept], 4)
    with pytest.raises(InvalidPaving):
        voronoi_cone_contains(holed, A2)


def test_secondary_cone_bounds_a_cell_with_an_inner_lattice_point():
    """(1, 0) lies on an edge of the first cell without being a vertex,
    so the interpolation of Q must lie below Q there: q_00 <= 0."""
    pav = PeriodicPaving(2, _obj([[2, 0], [0, 1]]),
                         [((0, 0), (2, 0), (0, 1)),
                          ((2, 0), (2, 1), (0, 1))], 3)
    equalities, inequalities = secondary_cone(pav)
    assert equalities == ()
    assert (-1, 0, 0) in inequalities
    assert not voronoi_cone_contains(pav, IDENT)
    assert voronoi_cone_contains(pav, QuadraticForm(_obj([[0, 0], [0, 1]])))


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


PINNED_CONES = pytest.mark.parametrize("qm, dim", [
    ([[2, 1], [1, 2]], 3),
    ([[1, 0], [0, 1]], 2),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4),
    ([[2, 1, 0], [1, 2, 0], [0, 0, 1]], 4),
    ([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], 6),
    (I3, 3),
], ids=["hexagonal", "square", "A3", "hexagonal+1", "bcc", "cube"])


@PINNED_CONES
def test_secondary_cone_dimension(qm, dim):
    """r(r+1)/2 less the rank of the equalities (Voronoi's 2 types in
    rank 2; 4 of Fedorov's 5 in rank 3)."""
    r = len(qm)
    pav = delaunay_subdivision(QuadraticForm(_obj(qm)),
                               np.eye(r, dtype=object), 3)
    equalities, _ = secondary_cone(pav)
    assert r * (r + 1) // 2 - rank(equalities) == dim


@PINNED_CONES
def test_the_selling_cone_has_one_row_per_facet(qm, dim):
    """A Delaunay paving's cone is simplicial: dim inequalities,
    independent modulo the equalities (so each is nonzero and no two
    differ by an equality), and equalities of rank r(r+1)/2 - dim."""
    r = len(qm)
    pav = delaunay_subdivision(QuadraticForm(_obj(qm)),
                               np.eye(r, dtype=object), 3)
    equalities, inequalities = secondary_cone(pav)
    n = r * (r + 1) // 2
    assert len(inequalities) == dim
    assert rank(equalities) == n - dim
    assert rank(equalities + inequalities) == n


CONE_PAVING_FORMS = [
    [[1]],
    [[2, 1], [1, 2]], [[1, 0], [0, 1]], [[2, -1], [-1, 3]], SHEARED,
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
    [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], I3,
    [[4, 1, 1], [1, 3, -1], [1, -1, 5]],
]
COARSER_BASES = {1: [[2]], 2: [[2, 1], [0, 1]],
                 3: [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}
CONE_WINDOWS = {1: 4, 2: 8, 3: 3}


def _gram(rows, r):
    return [[sum(a[i] * a[j] for a in rows) for j in range(r)]
            for i in range(r)]


@st.composite
def pavings_and_forms(draw):
    """A Delaunay paving of rank <= 3, at Z^r or a coarser period
    lattice, and a form of the same rank: the Gram matrix of k integer
    rows (semidefinite of rank <= k, k = 0 ... r), less that of a few
    more rows (indefinite, or semidefinite of either sign), scaled by a
    positive rational."""
    qm = draw(st.one_of(st.sampled_from(CONE_PAVING_FORMS),
                        pd2_forms().map(lambda q: q.matrix.tolist())))
    r = len(qm)
    pb = draw(st.sampled_from([np.eye(r, dtype=int).tolist(),
                               COARSER_BASES[r]]))
    pav = delaunay_subdivision(QuadraticForm(_obj(qm)), _obj(pb),
                               CONE_WINDOWS[r])
    vectors = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    k = draw(st.integers(0, r))
    m = _gram(draw(st.lists(vectors, min_size=k, max_size=k)), r)
    minus = _gram(draw(st.lists(vectors, max_size=2)), r)
    scale = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    m = [[scale * (a - b) for a, b in zip(x, y)] for x, y in zip(m, minus)]
    return pav, QuadraticForm(_obj(m))


@settings(max_examples=150, deadline=None)
@given(pavings_and_forms())
def test_voronoi_cone_matches_the_delaunay_reference(case):
    """The sign check against the cone rows answers as recomputing
    Delaunay (through the kernel quotient for semidefinite forms) and
    locating each cell; draws the reference cannot answer are skipped."""
    pav, q = case
    try:
        want = voronoi_cone_reference(pav, q)
    except DomainError:
        reject()
    assert voronoi_cone_contains(pav, q) == want


def _coordinates(basis, rows):
    """The coordinates of each row in the rows ``basis`` of Q^n."""
    n = len(basis)
    system = [[b[i] for b in basis] + [row[i] for row in rows]
              for i in range(n)]
    reduced, pivots, _ = row_reduce(system, n)
    assert pivots == list(range(n))
    return [[reduced[k][n + j] for k in range(n)] for j in range(len(rows))]


SHIFTS = {1: (Fraction(1, 2),), 2: (Fraction(1, 2), Fraction(1, 3)),
          3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))}


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(CONE_PAVING_FORMS),
                 pd2_forms().map(lambda q: q.matrix.tolist())),
       st.booleans(), st.booleans())
def test_the_selling_cone_is_the_cone_of_the_cells(qm, coarser, shifted):
    """The rows read off the superbase and the rows built from the cells
    of the same paving (carried without its superbase) cut out one cone:
    the same equality span, and every cell row is, modulo it, a
    non-negative combination of the Selling inequalities, each of which
    is itself a cell row; so the cell rows' facets are the Selling
    rows."""
    r = len(qm)
    pb = COARSER_BASES[r] if coarser else np.eye(r, dtype=int).tolist()
    pav = delaunay_subdivision(QuadraticForm(_obj(qm)), _obj(pb),
                               CONE_WINDOWS[r],
                               SHIFTS[r] if shifted else None)
    equalities, inequalities = secondary_cone(pav)
    cell_eqs, cell_ineqs = secondary_cone(
        PeriodicPaving(r, pav.period_basis, pav.cells, pav.window))
    assert rank(cell_eqs) == rank(equalities)
    e = len(equalities)
    basis = equalities + inequalities
    assert all(not any(c[e:]) for c in _coordinates(basis, cell_eqs))
    coords = [c[e:] for c in _coordinates(basis, cell_ineqs)]
    assert all(x >= 0 for c in coords for x in c)
    for k in range(len(inequalities)):
        assert any(c[k] > 0 and not any(c[:k] + c[k + 1:]) for c in coords)


# -- the solves of the paving through the one inverse ------------------------

@st.composite
def ellipsoids(draw):
    """(G, C, d, R): G = A^T A + I of rank r = 1 ... 3 for an integer A
    of at most three rows, an integer centre C and a d > 0 that share a
    factor of 1 ... 3, and R at least G(d y_0 - C) for an integer y_0,
    so the ellipsoid is not empty."""
    r = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    a = _gram(draw(st.lists(vectors, max_size=3)), r)
    g = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    common = draw(st.integers(1, 3))
    d = common * draw(st.integers(1, 4))
    centre = [common * x for x in draw(
        st.lists(st.integers(-4, 4), min_size=r, max_size=r))]
    z = [d * y - c for y, c in zip(draw(vectors), centre)]
    return g, centre, d, oracles._qval(g, z) + draw(st.integers(0, 2 * d * d))


@settings(max_examples=60, deadline=None)
@given(ellipsoids())
@example(([[1]], [0], 1, 0))
@example(([[2, 1], [1, 2]], [2, 2], 4, 3))
def test_the_ellipsoid_box_lists_exactly_the_ellipsoid(case):
    """_ellipsoid_points, boxed by G^-1 from LatticeCoordinates, lists
    each y with G(d y - C) <= R once, in lexicographic order, with that
    value; the reference is the coordinate-by-coordinate enumeration,
    filtered exactly."""
    g, centre, d, radius = case

    def dist(y):
        return oracles._qval(g, [d * a - c for a, c in zip(y, centre)])
    want = sorted(y for y in oracles.ellipsoid_lattice_points(
        g, [Fraction(c, d) for c in centre], Fraction(radius, d * d))
        if dist(y) <= radius)
    got = list(quadform_delaunay._ellipsoid_points(
        LatticeCoordinates(g), centre, d, radius))
    assert got == [(y, dist(y)) for y in want]


def sheared_pd2_forms():
    """Reduced binary forms sheared by [[1, k], [0, 1]], |k| <= 4."""
    def shear(q, k):
        (a, c), (_, b) = q.matrix.tolist()
        return [[a, c + k * a], [c + k * a, b + 2 * k * c + k * k * a]]
    return st.builds(shear, reduced_pd2_forms(), st.integers(-4, 4))


@settings(max_examples=40, deadline=None)
@given(st.one_of(sheared_pd2_forms(), reduced_pd3_forms()), st.booleans())
@example(SHEARED, True)
def test_sigma_is_half_the_form_at_every_vertex(qm, coarser):
    """Each piece of sigma, one _affine_through per Delaunay cell, takes
    the value Q(v) / 2 at every vertex v of its cell."""
    r = len(qm)
    pb = COARSER_BASES[r] if coarser else np.eye(r, dtype=int).tolist()
    q = QuadraticForm(_obj(qm))
    s = sigma_section(q, _obj(pb), 16 if r == 2 else 3)
    for cell, (lin, const) in zip(s.paving.cells, s.cell_affines):
        assert all(sum(map(mul, lin[0], v)) + const[0] == q.value(v) / 2
                   for v in cell.vertices)


# -- equivariance -----------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(pd2_forms(), st.integers(-2, 2))
@example(QuadraticForm(_obj([[2, -3], [-3, 5]])), 2)
@example(QuadraticForm(_obj([[5, -2], [-2, 1]])), 2)
def test_delaunay_gl_equivariance(q, k):
    """Delaunay((u^T)^{-1} Q u^{-1}) = u . Delaunay(Q)."""
    u = _obj([[1, k], [0, 1]])
    q2 = QuadraticForm(glxy_act(u, q.matrix, I2))
    pav = delaunay_subdivision(q, I2, 6)
    pav2 = delaunay_subdivision(q2, I2, 6)
    mapped = {pav2.canonical_cell(
        [tuple(int((u @ _obj([[x] for x in v]))[i, 0]) for i in range(2))
         for v in c.vertices]).vertices for c in pav.cells}
    assert mapped == {c.vertices for c in pav2.cells}


# -- paving integrity -------------------------------------------------------

def test_walls_require_two_incidences():
    # half of the hexagonal triangulation: edges no longer match up
    broken = PeriodicPaving(2, I2, [LatticePolytope(((0, 0), (0, 1),
                                                     (1, 0)))], 2)
    with pytest.raises(InvalidPaving):
        broken.walls()


def test_find_containing_cell():
    pav = delaunay_subdivision(A2, I2, 4)
    idx, shift = pav.find_containing_cell((Fraction(7, 3), Fraction(10, 3)))
    cell = pav.cells[idx].translated(shift)
    # barycentric sanity: the point satisfies every facet inequality
    from tropab import _geometry as geom
    assert geom.point_in_polytope((Fraction(7, 3), Fraction(10, 3)),
                                  cell.facets())


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def _location_probes(pav, rng):
    """Lattice, edge-midpoint, vertex and random rational points."""
    r = pav.rank
    pts = [tuple(rng.randint(-6, 6) for _ in range(r)) for _ in range(12)]
    for cell in pav.cells:
        vs = cell.vertices
        for a in vs:
            t = tuple(rng.randint(-4, 4) for _ in range(r))
            pts.append(tuple(x + s for x, s in zip(a, t)))
            for b in vs:
                if a < b:
                    pts.append(tuple(Fraction(x + y, 2) + s
                                     for x, y, s in zip(a, b, t)))
    pts += [tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 6))
                  for _ in range(r)) for _ in range(30)]
    return pts


@pytest.mark.parametrize("q, pb, window", [
    ([[2, 1], [1, 2]], [[1, 0], [0, 1]], 4),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4),
    (A3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
])
def test_find_containing_cell_matches_reference_scan(q, pb, window):
    pav = delaunay_subdivision(QuadraticForm(_obj(q)), _obj(pb), window)
    cells = [c.vertices for c in pav.cells]
    for pt in _location_probes(pav, random.Random(7)):
        assert pav.find_containing_cell(pt) == \
            locate_by_scan(cells, pb, pt), pt


@st.composite
def location_cases(draw):
    """(form, period basis, shift) of a Delaunay paving: rank 1; a rank-2
    form or SHEARED, sheared by [[1, k], [0, 1]] or its transpose,
    |k| <= 8; a reduced rank-3 form.  The period basis is Z^r or a
    coarser one, and in rank 2 the lattice may be shifted by (1/2, 1/3)."""
    r = draw(st.integers(1, 3))
    shift = None
    if r == 1:
        qm = [[draw(st.integers(1, 6))]]
        pb = [[draw(st.integers(1, 3))]]
    elif r == 2:
        qm = draw(st.one_of(st.just(SHEARED), pd2_forms().map(
            lambda q: q.matrix.tolist())))
        k = draw(st.integers(-8, 8))
        u = [[1, k], [0, 1]] if draw(st.booleans()) else [[1, 0], [k, 1]]
        qm = [[sum(u[a][i] * qm[a][b] * u[b][j]
                   for a in range(2) for b in range(2))
               for j in range(2)] for i in range(2)]
        pb = draw(st.sampled_from([[[1, 0], [0, 1]], [[2, 1], [0, 1]]]))
        shift = draw(st.sampled_from([None, HALF_THIRD]))
    else:
        qm = draw(reduced_pd3_forms())
        pb = draw(st.sampled_from([I3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]))
    return qm, pb, shift


@settings(max_examples=15, deadline=None)
@given(location_cases(), st.integers(0, 2 ** 16))
@example(([[1]], [[2]], None), 0)
@example(([[2, 1], [1, 2]], [[1, 0], [0, 1]], HALF_THIRD), 1)
@example((SHEARED, [[2, 1], [0, 1]], HALF_THIRD), 2)
@example((A3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], None), 3)
def test_face_type_location_matches_the_scan(case, seed):
    """find_containing_cell answers from the face-type table on a
    Delaunay paving; on every probe (lattice points, vertices, edge
    midpoints and random rationals) it gives the scan's cell and shift."""
    qm, pb, shift = case
    pav = delaunay_subdivision(QuadraticForm(_obj(qm)), _obj(pb), 3, shift)
    cells = [c.vertices for c in pav.cells]
    for pt in _location_probes(pav, random.Random(seed)):
        assert pav.find_containing_cell(pt) == \
            locate_by_scan(cells, pb, pt), pt


@pytest.mark.parametrize("q, pb, window", [
    ([[1]], [[1]], 4),
    ([[2, 1], [1, 2]], [[1, 0], [0, 1]], 4),
    ([[3, 1], [1, 5]], [[1, 0], [0, 1]], 4),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4),
    (A3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
    (I3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 3),
])
def test_the_face_type_table_stays_within_its_bound(q, pb, window):
    """At most 2^r 3^(r(r-1)/2) |det B| keys, however many points."""
    pav = delaunay_subdivision(QuadraticForm(_obj(q)), _obj(pb), window)
    rng = random.Random(5)
    r = len(q)
    for _ in range(2000):
        pav.find_containing_cell(tuple(
            Fraction(rng.randint(-120, 120), rng.randint(1, 4))
            for _ in range(r)))
    table = pav._faces[-1]
    assert 0 < len(table) <= \
        2 ** r * 3 ** (r * (r - 1) // 2) * abs(frac_det(_obj(pb)))


CONSTRUCTION_STATE = {"rank", "_period_basis_rows", "lattice", "window",
                      "cells"}


def test_a_hand_built_paving_derives_its_data_on_first_use():
    """The constructor sets no placeholder; walls, locator and cone are
    computed on first use, and each later use returns the same object."""
    pav = PeriodicPaving(2, I2, [LatticePolytope(PARALLELOGRAM)], 5)
    assert set(vars(pav)) == CONSTRUCTION_STATE
    assert pav.walls() is pav.walls()
    assert secondary_cone(pav) is secondary_cone(pav)
    assert pav.cell_facets(0) is pav.cells[0].facets()
    pt = (Fraction(1, 2), 0)
    assert pav.find_containing_cell(pt) == \
        locate_by_scan([PARALLELOGRAM], [[1, 0], [0, 1]], pt)
    assert set(vars(pav)) == CONSTRUCTION_STATE | {"_walls", "_cone",
                                                   "_locator"}


def test_a_delaunay_paving_is_built_whole():
    """delaunay_subdivision returns a DelaunayPaving that holds its cells
    and its superbase from construction on, prints as a PeriodicPaving,
    and reads its locator table and cone off the superbase."""
    pav = delaunay_subdivision(QuadraticForm(_obj(A3)), _obj(I3), 3)
    assert isinstance(pav, PeriodicPaving)
    assert type(pav) is quadform_delaunay.DelaunayPaving
    assert repr(pav) == "PeriodicPaving(rank=3, cells=3, window=3)"
    assert set(vars(pav)) == CONSTRUCTION_STATE | {"_superbase"}
    assert secondary_cone(pav) is secondary_cone(pav)
    assert pav.find_containing_cell((Fraction(1, 3), 0, 0)) == \
        PeriodicPaving.locate_cleared(pav, (1, 0, 0), 3)
    assert set(vars(pav)) == CONSTRUCTION_STATE | {"_superbase", "_cone",
                                                   "_faces", "_locator"}


def test_find_containing_cell_reaches_long_cells():
    """The parallelogram of SHEARED needs translates far outside
    [-2, 2]^2 to cover the unit square."""
    pav = PeriodicPaving(2, I2, [LatticePolytope(PARALLELOGRAM)], 5)
    for pt in _location_probes(pav, random.Random(11)):
        assert pav.find_containing_cell(pt) == \
            locate_by_scan([PARALLELOGRAM], [[1, 0], [0, 1]], pt), pt


def test_find_containing_cell_refuses_uncovered_point():
    pav = delaunay_subdivision(A2, I2, 4)
    kept, dropped = pav.cells[0], pav.cells[1]
    holed = PeriodicPaving(2, I2, [kept], 4)
    inside = tuple(sum(Fraction(v[i]) for v in dropped.vertices) / 3
                   for i in range(2))
    assert locate_by_scan([kept.vertices], [[1, 0], [0, 1]], inside) is None
    with pytest.raises(InvalidPaving) as err:
        holed.find_containing_cell(inside)
    assert str(err.value) == ("point (Fraction(2, 3), Fraction(-1, 3)) "
                              "not covered by the paving")
    assert holed.locate_cleared((2, -1), 3) is None


def test_positive_definiteness_is_decided_once_per_form(monkeypatch):
    calls = {"pd": 0, "psd": 0}

    def counting(name, check):
        def wrapped(m):
            calls[name] += 1
            return check(m)
        return wrapped
    monkeypatch.setattr(quadform_delaunay, "is_positive_definite",
                        counting("pd", quadform_delaunay.is_positive_definite))
    monkeypatch.setattr(oracles, "is_positive_semidefinite",
                        counting("psd", oracles.is_positive_semidefinite))
    q = QuadraticForm(_obj([[2, 1], [1, 3]]))
    pav = delaunay_subdivision(q, I2, 4)
    assert delaunay_subdivision(q, I2, 5) is not pav
    assert voronoi_cone_contains(pav, q)
    # the cone rows ask no form whether it is definite or semidefinite
    assert voronoi_cone_contains(pav, QuadraticForm(_obj([[1, 0], [0, 0]])))
    assert calls == {"pd": 1, "psd": 0}
