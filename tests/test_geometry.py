"""Facet normals and hulls in cleared integers against the Fraction
reference, and volumes by facet pyramids against their symmetries."""

from fractions import Fraction

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropab._geometry import (_cleared, _integer_normal, polytope_facets,
                              polytope_volume)
from tropab.exact_linalg import rank

from oracles import (frac_det, normal_through_reference,
                     polytope_facets_reference, polytope_volume_reference)


def points(r):
    """Rational points of rank r with denominators at most 4."""
    return st.tuples(*[st.builds(Fraction, st.integers(-6, 6),
                                 st.integers(1, 4))] * r)


def _barycentre(pts):
    return tuple(sum(p[i] for p in pts) / len(pts)
                 for i in range(len(pts[0])))


@st.composite
def hulls(draw):
    """A full-dimensional point set of rank 1 to 3: r + 1 to r + 3
    points, their centroid (inside), and barycentres of some 2..max(r, 2)
    of them, which lie on a facet whenever those points do."""
    r = draw(st.sampled_from((1, 2, 3)))
    base = draw(st.lists(points(r), min_size=r + 1, max_size=r + 3))
    assume(rank([[a - b for a, b in zip(p, base[0])] for p in base[1:]])
           == r)
    subsets = draw(st.lists(st.lists(st.sampled_from(range(len(base))),
                                     min_size=2, max_size=max(r, 2),
                                     unique=True),
                            max_size=3))
    extra = [_barycentre(base)] + [_barycentre([base[i] for i in s])
                                   for s in subsets]
    return draw(st.permutations(base + extra))


@st.composite
def spans(draw):
    """Points spanning an affine subspace of dimension len(base) - 1 of
    Q^r (a hyperplane when that is r - 1): the base points, affine
    combinations of them with integer weights, and sometimes one free
    point, which may raise the dimension by one."""
    r = draw(st.sampled_from((2, 3)))
    base = draw(st.lists(points(r), min_size=1, max_size=r))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                    max_size=len(base)), max_size=3))
    pts = base + [tuple(p0 + sum(w * (p[i] - p0) for w, p in zip(ws, base))
                        for i, p0 in enumerate(base[0])) for ws in combos]
    free = draw(st.one_of(st.none(), points(r)))
    return draw(st.permutations(pts + ([free] if free else [])))


def normal_through(pts):
    """The primitive normal of the hyperplane through rational points, as
    the package computes it: cleared once, then integer cofactors."""
    return _integer_normal(_cleared(pts))


@settings(max_examples=60, deadline=None)
@given(spans())
def test_normal_through_matches_reference(pts):
    assert normal_through(pts) == normal_through_reference(pts)


@settings(max_examples=40, deadline=None)
@given(hulls())
def test_polytope_facets_match_reference(pts):
    got = polytope_facets(pts)
    want = polytope_facets_reference(pts)
    assert got == want
    assert [type(c) for _f, _n, c in got] == [type(c) for _f, _n, c in want]


def test_normal_through_frozen_cases():
    half = Fraction(1, 2)
    # the line x + 2y = 1 through rational points
    assert normal_through([(1, 0), (0, half)]) == (1, 2)
    assert normal_through([(1, 0), (0, half), (-1, 1)]) == (1, 2)
    # a square facet of the unit cube, more than r points
    assert normal_through([(0, 0, 1), (1, 0, 1), (0, 1, 1),
                           (1, 1, 1)]) == (0, 0, 1)
    # a point, a line in rank 3, and a spanning set: no hyperplane
    assert normal_through([(half, half)]) is None
    assert normal_through([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) is None
    assert normal_through([(0, 0), (1, 0), (0, 1)]) is None


@st.composite
def volume_cases(draw):
    """A full-dimensional point set of rank 1 to 3, a translation and a
    nonsingular integer matrix."""
    r = draw(st.sampled_from((1, 2, 3)))
    pts = draw(st.lists(points(r), min_size=r + 1, max_size=r + 4))
    assume(rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
           == r)
    shift = draw(points(r))
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                      min_size=r, max_size=r))
    assume(frac_det(a) != 0)
    return pts, shift, a


@settings(max_examples=60, deadline=None)
@given(volume_cases())
def test_polytope_volume_is_translation_invariant_and_scales_by_det(case):
    pts, shift, a = case
    vol = polytope_volume(pts)
    assert type(vol) is Fraction and vol > 0
    assert polytope_volume([tuple(x + t for x, t in zip(p, shift))
                            for p in pts]) == vol
    mapped = [tuple(sum(m * x for m, x in zip(row, p)) for row in a)
              for p in pts]
    assert polytope_volume(mapped) == abs(frac_det(a)) * vol


@pytest.mark.parametrize("pts, want", [
    ([(0,), (1,)], 1),
    ([(0, 0), (1, 0), (0, 1)], Fraction(1, 2)),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], Fraction(1, 6)),
    (list(product((0, 1), repeat=2)), 1),
    (list(product((0, 1), repeat=3)), 1),
    ([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)], Fraction(5, 2)),
], ids=["segment", "triangle", "tetrahedron", "square", "cube", "pentagon"])
def test_polytope_volume_frozen_cases(pts, want):
    assert polytope_volume(pts) == polytope_volume_reference(pts) == want
