"""Integer/rational linear algebra: normal forms, symplectic reduction,
and the stabilizer action on quadratic forms."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropab.degeneration_monoids import (CentralFiberComplex,
                                         FaceQuotientData,
                                         TwistedMonoidElement)
from tropab.errors import (Degenerate, NotInGLXY, NotInjective, NotSkew,
                           NotUnimodular)
from tropab.exact_linalg import (LatticeCoordinates, PolarizationType,
                                 SymplecticDecomposition, as_int_matrix,
                                 frac_det, frac_inv, glxy_act,
                                 hermite_normal_form, independent_rows,
                                 is_positive_definite, lattice_membership,
                                 polarization_type, rank, row_reduce,
                                 smith_normal_form, standard_symplectic_form,
                                 symplectic_normal_form)
from tropab.pavings_pwl import (QuasiperiodicDecomposition, ToricMonoid,
                                quasiperiodic_decompose, sigma_section)
from tropab.quadform_delaunay import LatticePolytope, QuadraticForm
from tropab.siegel_trop import CuspSpec
from tropab.theta_heisenberg import DegenerationData, HeisenbergElement

from oracles import frac_det as cofactor_det
from oracles import (frac_solve, hermite_normal_form_reference, kernel,
                     lattice_inverse_reference,
                     row_reduce_reference, smith_normal_form_reference,
                     snf_diag_via_minor_gcds,
                     symplectic_normal_form_reference)


def _obj(m):
    return np.array(m, dtype=object)


small_int = st.integers(min_value=-9, max_value=9)


def int_matrix(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


# -- Hermite ----------------------------------------------------------------

def test_hnf_frozen_example():
    h, u = hermite_normal_form(_obj([[2, 4], [6, 8]]))
    assert (u @ _obj([[2, 4], [6, 8]]) == h).all()
    assert h[1, 0] == 0
    assert h[0, 0] > 0 and h[1, 1] > 0


def test_hnf_identity_fixed():
    h, u = hermite_normal_form(np.eye(3, dtype=object))
    assert (h == np.eye(3, dtype=object)).all()
    assert (u == np.eye(3, dtype=object)).all()


@settings(max_examples=60, deadline=None)
@given(int_matrix(3))
def test_hnf_shape_properties(m):
    m = _obj(m)
    h, u = hermite_normal_form(m)
    # u is unimodular and h = u m
    assert abs(frac_det(u)) == 1
    assert (u @ m == h).all()
    # echelon: pivot columns increase strictly; pivots positive;
    # entries above each pivot reduced into [0, pivot)
    last = -1
    for i in range(3):
        nz = [j for j in range(3) if h[i, j] != 0]
        if not nz:
            continue
        p = nz[0]
        assert p > last
        last = p
        assert h[i, p] > 0
        for k in range(i):
            assert 0 <= h[k, p] < h[i, p]


# -- Smith ------------------------------------------------------------------

def test_snf_frozen_examples():
    assert smith_normal_form(_obj([[2, 4], [6, 8]]))[0] == [2, 4]
    assert smith_normal_form(_obj([[2, 1], [0, 2]]))[0] == [1, 4]
    assert smith_normal_form(_obj([[3, 0], [0, 3]]))[0] == [3, 3]


@settings(max_examples=60, deadline=None)
@given(int_matrix(3))
def test_snf_matches_minor_gcd_oracle(m):
    m = _obj(m)
    diag, u, v = smith_normal_form(m)
    assert diag == snf_diag_via_minor_gcds(m)
    d = u @ m @ v
    assert all(d[i, j] == (diag[i] if i == j else 0)
               for i in range(3) for j in range(3))
    assert abs(frac_det(u)) == 1 and abs(frac_det(v)) == 1
    # divisibility chain (zeros only at the end)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


# -- symplectic reduction ---------------------------------------------------

def test_symplectic_standard_form_is_its_own_reduction():
    t = PolarizationType((1, 3))
    e = standard_symplectic_form(t)
    dec = symplectic_normal_form(e)
    assert dec.type == t
    assert (dec.basis_change @ e @ dec.basis_change.T == e).all()


def test_symplectic_rejects_non_alternating():
    with pytest.raises(NotSkew, match="not alternating"):
        symplectic_normal_form(_obj([[1, 2], [-2, 0]]))
    with pytest.raises(NotSkew):
        symplectic_normal_form(_obj([[0, 2, 0], [-2, 0, 0], [0, 0, 0]]))


def test_symplectic_rejects_degenerate():
    z = np.zeros((4, 4), dtype=object)
    z[0, 1], z[1, 0] = 1, -1
    with pytest.raises(Degenerate):
        symplectic_normal_form(z)


def test_symplectic_rejects_degeneracy_found_after_the_first_block():
    # B (J + 2J + 0) B^T for a unimodular B: rank 4, so the reduction
    # splits off two blocks before it meets the all-zero one
    e0 = np.zeros((6, 6), dtype=object)
    e0[0, 1], e0[1, 0], e0[2, 3], e0[3, 2] = 1, -1, 2, -2
    b = _obj([[1, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0],
              [0, 0, 3, 1, 0, 0], [1, 0, 0, -1, 1, 0], [0, 2, 0, 0, 1, 1]])
    e = b @ e0 @ b.T
    assert e[0, 1] != 0 and rank(e.tolist()) == 4
    with pytest.raises(Degenerate, match="^form is degenerate$"):
        symplectic_normal_form(e)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_int, min_size=6, max_size=6))
def test_symplectic_random_4x4(entries):
    # build a generic alternating 4x4 from 6 free entries
    e = np.zeros((4, 4), dtype=object)
    k = 0
    for i in range(4):
        for j in range(i + 1, 4):
            e[i, j], e[j, i] = entries[k], -entries[k]
            k += 1
    if frac_det(e) == 0:
        return
    dec = symplectic_normal_form(e)
    b = dec.basis_change
    assert abs(frac_det(b)) == 1
    assert (b @ e @ b.T == standard_symplectic_form(dec.type)).all()
    # the type is also readable off the Smith diagonal: (d1, d1, d2, d2)
    snf = smith_normal_form(e)[0]
    assert snf == [dec.type.diag[0], dec.type.diag[0],
                   dec.type.diag[1], dec.type.diag[1]]


def _decomposition(scale):
    samples = {(x, y): scale * (x * x + x * y + y * y)
               for x in range(-2, 3) for y in range(-2, 3)}
    return quasiperiodic_decompose(samples, [[1, 0], [0, 1]])


def _degeneration(s_xi):
    return DegenerationData(QuadraticForm([[2, 1], [1, 2]]),
                            [[4, 2], [2, 4]], PolarizationType((1, 1)), s_xi)


@pytest.mark.parametrize("make, args, other", [
    (QuadraticForm, [[2, 1], [1, 2]], [[2, 0], [0, 2]]),
    (_degeneration, [[0, 0], [0, 0]], [[0, 1], [-1, 0]]),
    (_decomposition, 1, 2),
    (symplectic_normal_form, [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0],
                              [0, -2, 0, 0]],
     [[0, 0, 1, 0], [0, 0, 0, 3], [-1, 0, 0, 0], [0, -3, 0, 0]]),
], ids=["QuadraticForm", "DegenerationData", "QuasiperiodicDecomposition",
        "SymplecticDecomposition"])
def test_rank_2_values_compare_and_hash_on_their_rows(make, args, other):
    """Two builds of one value are equal and hash alike, whether or not
    their public arrays were built; a different value is unequal."""
    a, b = make(args), make(args)
    for name in ("matrix", "phi_check", "bilinear", "basis_change"):
        getattr(a, name, None)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != make(other) and a != "a value of another type"


def _record_arguments():
    """Per record class of the package: arguments of one record, and the
    same with one field changed."""
    delta, unimodular = PolarizationType((1, 2)), PolarizationType((1, 1))
    form = QuadraticForm([[2, 1], [1, 2]])
    cell = LatticePolytope(((0, 0), (0, 1), (1, 0)))
    monoid = ToricMonoid(1, [(1,)])
    pushed = sigma_section(QuadraticForm([[2]]), [[1]], 4)
    return {
        PolarizationType: (((1, 2),), ((1, 4),)),
        SymplecticDecomposition: ((delta, [[1, 0], [0, 1]]),
                                  (delta, [[0, 1], [1, 0]])),
        QuadraticForm: (([[2, 1], [1, 2]],), ([[2, 0], [0, 2]],)),
        LatticePolytope: ((((0, 0), (0, 1), (1, 0)),),
                          (((0, 0), (0, 1), (1, 1)),)),
        QuasiperiodicDecomposition: (
            ([[2, 1], [1, 2]], (0, 0), {(0, 0): 0}, [[1, 0], [0, 1]]),
            ([[2, 1], [1, 2]], (0, 0), {(0, 0): 1}, [[1, 0], [0, 1]])),
        TwistedMonoidElement: ((1, (0, 1), (Fraction(1, 2),)),
                               (1, (0, 1), (Fraction(1, 3),))),
        CentralFiberComplex: (((cell,), ()),
                              ((cell,), ((0, 0, ((0, 0),)),))),
        FaceQuotientData: ((monoid, pushed, None, True),
                           (monoid, pushed, None, False)),
        HeisenbergElement: ((1, (0, 1), (0, 1), delta, 4),
                            (2, (0, 1), (0, 1), delta, 4)),
        DegenerationData: (
            (form, [[4, 2], [2, 4]], unimodular, [[0, 0], [0, 0]]),
            (form, [[4, 2], [2, 4]], unimodular, [[0, 1], [-1, 0]])),
        CuspSpec: ((1, delta), (0, delta)),
    }


RECORDS = list(_record_arguments())


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_a_record_compares_by_its_fields_and_is_immutable(cls):
    """Equal arguments, positional or by keyword, give equal records with
    equal hashes; a changed field gives an unequal record.  Assigning or
    deleting a field, or any other attribute, raises AttributeError.  A
    FaceQuotientData has no hash: its function, a PwAffineFunction, has
    none."""
    assert len(RECORDS) == 11
    args, changed = _record_arguments()[cls]
    a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert a == b and not a != b
    if cls is FaceQuotientData:
        with pytest.raises(TypeError, match="PwAffineFunction"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != cls(*changed) and a != "a value of another type"
    for name in (cls._fields[0], "another"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_a_record_repr_names_its_fields():
    assert repr(PolarizationType((1, 2))) == "PolarizationType(diag=(1, 2))"
    assert repr(LatticePolytope([(1, 0), (0, 0), (0, 1)])) == \
        "LatticePolytope(vertices=((0, 0), (0, 1), (1, 0)))"


def test_the_repr_of_a_matrix_field_is_its_rows_and_loads_no_numpy():
    """In a fresh interpreter, the repr of each record with a matrix
    field prints the field's rows: it builds no array, so numpy stays
    unloaded."""
    source = """import sys
from tropab.exact_linalg import PolarizationType, symplectic_normal_form
from tropab.pavings_pwl import QuasiperiodicDecomposition
from tropab.quadform_delaunay import QuadraticForm
from tropab.theta_heisenberg import DegenerationData
form = QuadraticForm([[2, 1], [1, 2]])
print(repr(form))
print(repr(symplectic_normal_form([[0, 1], [-1, 0]])))
print(repr(QuasiperiodicDecomposition([[2]], (0,), {(0,): 0}, [[1]])))
print(repr(DegenerationData(form, [[4, 2], [2, 4]], PolarizationType((1, 1)),
                            [[0, 1], [-1, 0]])))
print("numpy" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    p = subprocess.run([sys.executable, "-c", source], capture_output=True,
                       text=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=str(src)))
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == [
        "QuadraticForm(matrix=((Fraction(2, 1), Fraction(1, 1)), "
        "(Fraction(1, 1), Fraction(2, 1))))",
        "SymplecticDecomposition(type=PolarizationType(diag=(1,)), "
        "basis_change=((1, 0), (0, 1)))",
        "QuasiperiodicDecomposition(bilinear=((Fraction(2, 1),),), "
        "quadratic_linear=(0,), periodic={(0,): 0}, period_basis=((1,),))",
        "DegenerationData(q_form=QuadraticForm(matrix=((Fraction(2, 1), "
        "Fraction(1, 1)), (Fraction(1, 1), Fraction(2, 1)))), "
        "phi_check=((4, 2), (2, 4)), d_type=PolarizationType(diag=(1, 1)), "
        "s_xi=((0, 1), (-1, 0)), s_prime=((0, 1), (1, 0)))",
        "False"]


# -- polarization types -----------------------------------------------------

def test_polarization_type_examples():
    assert polarization_type(_obj([[1, 0], [0, 3]])).diag == (1, 3)
    assert polarization_type(_obj([[2, 0], [0, 2]])).diag == (2, 2)
    # off-diagonal maps reduce to their Smith type
    assert polarization_type(_obj([[2, 1], [0, 2]])).diag == (1, 4)


def test_polarization_type_degree_and_matrix():
    t = PolarizationType((2, 6))
    assert t.degree == 12
    assert (t.matrix() == _obj([[2, 0], [0, 6]])).all()


def test_polarization_type_divisibility_enforced():
    with pytest.raises(ValueError):
        PolarizationType((2, 3))
    with pytest.raises(ValueError):
        PolarizationType((0, 2))


def test_polarization_type_rejects_singular_map():
    with pytest.raises(NotInjective):
        polarization_type(_obj([[1, 2], [2, 4]]))


def test_polarization_type_rejects_singular_3x3():
    with pytest.raises(NotInjective):
        polarization_type(_obj([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


# -- lattice membership -----------------------------------------------------

def test_lattice_membership():
    basis = _obj([[2, 0], [0, 3]])
    assert lattice_membership(basis, (4, -3))
    assert not lattice_membership(basis, (1, 0))
    assert lattice_membership(basis, (0, 0))


# -- GL(X, Y) action --------------------------------------------------------

def test_glxy_preserves_values():
    u = _obj([[1, 1], [0, 1]])
    q = _obj([[2, 0], [0, 2]])
    y = np.eye(2, dtype=object)
    q2 = glxy_act(u, q, y)
    # (u^T)^{-1} q u^{-1} evaluated at u x equals q at x
    for x in [(1, 0), (0, 1), (2, -3)]:
        ux = tuple(int((u @ _obj([[c] for c in x]))[i, 0]) for i in range(2))
        val = sum(Fraction(q2[i, j]) * ux[i] * ux[j]
                  for i in range(2) for j in range(2))
        ref = sum(Fraction(q[i, j]) * x[i] * x[j]
                  for i in range(2) for j in range(2))
        assert val == ref


def test_glxy_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        glxy_act(_obj([[2, 0], [0, 1]]), np.eye(2, dtype=object),
                 np.eye(2, dtype=object))


def test_glxy_rejects_sublattice_violation():
    # u swaps the axes but Y = 2Z x Z is only preserved up to index
    u = _obj([[0, 1], [1, 0]])
    y = _obj([[2, 0], [0, 1]])
    with pytest.raises(NotInGLXY):
        glxy_act(u, np.eye(2, dtype=object), y)


def test_frac_inv_roundtrip():
    m = _obj([[Fraction(1, 2), 1], [0, 3]])
    assert (frac_inv(frac_inv(m)) == np.array(
        [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(3)]],
        dtype=object)).all()


# -- the rational row reduction ---------------------------------------------

small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices up to 4 x 4; half of them with one row replaced
    by a rational combination of the others (a zero row when alone), so
    that singular and rank-deficient inputs are common."""
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(small_frac, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(small_frac, min_size=n, max_size=n))
        rows[i] = [sum((c * rows[k][j] for k, c in enumerate(coeffs)
                        if k != i), Fraction(0)) for j in range(m)]
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True))
def test_det_and_inverse_match_cofactor_oracle(m):
    det = frac_det(m)
    assert det == cofactor_det(m)
    if det == 0:
        with pytest.raises(Degenerate):
            frac_inv(m)
    else:
        assert (frac_inv(m) @ _obj(m) == np.eye(len(m), dtype=object)).all()


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rank_kernel_and_independent_rows(m):
    ncols = len(m[0])
    ker = kernel(m, ncols)
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert rank(m) + len(ker) == ncols
    keep = independent_rows(m)
    assert rank([m[i] for i in keep]) == len(keep) == rank(m)
    # greedy: a row is left out iff it lies in the span of those before it
    for i in range(len(m)):
        assert (i in keep) == (rank(m[:i + 1]) > rank(m[:i]))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 4 x 4, shifted by c I for an
    integer c in [0, 20] so that positive definite ones are common."""
    n = draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(small_frac, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    c = draw(st.integers(0, 20))
    return [[m[min(i, j)][max(i, j)] + c * (i == j) for j in range(n)]
            for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_positive_definiteness_matches_cofactor_sylvester(m):
    want = all(cofactor_det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))
    assert is_positive_definite(_obj(m)) == want


def test_an_asymmetric_matrix_is_not_positive_definite():
    assert is_positive_definite(_obj([[2, 1], [1, 2]]))
    assert not is_positive_definite(_obj([[2, 1], [0, 2]]))


# -- lattice coordinates ----------------------------------------------------

@st.composite
def lattice_points(draw):
    """A nonsingular integer basis up to 3 x 3 and a rational point,
    integral half of the time."""
    n = draw(st.integers(1, 3))
    basis = draw(int_matrix(n).filter(lambda m: cofactor_det(m) != 0))
    if draw(st.booleans()):
        point = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    else:
        point = draw(st.lists(small_frac, min_size=n, max_size=n))
    return basis, tuple(point)


@settings(max_examples=200, deadline=None)
@given(lattice_points())
def test_lattice_coordinates_match_solve_oracle(case):
    basis, point = case
    coords = frac_solve(basis, point)
    assert lattice_membership(basis, point) == all(
        Fraction(c).denominator == 1 for c in coords)
    shift = LatticeCoordinates(basis).shift(point)
    # the shift is a lattice vector, and x - shift has period
    # coordinates in [0, 1)
    assert all(Fraction(c).denominator == 1
               for c in frac_solve(basis, shift))
    rest = frac_solve(basis, [x - t for x, t in zip(point, shift)])
    assert all(0 <= c < 1 for c in rest)


@st.composite
def lattice_bases(draw):
    """A nonsingular basis up to 4 x 4, of ints or of Fractions."""
    n = draw(st.integers(1, 4))
    entry = small_int if draw(st.booleans()) else small_frac
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n)
                .filter(lambda m: cofactor_det(m) != 0))


@settings(max_examples=300, deadline=None)
@given(lattice_bases())
def test_lattice_inverse_matches_the_fraction_route(basis):
    """The integer rows of B^-1 over the least den, from the elimination
    of the cleared basis, equal those of frac_inv: same ints, same den."""
    lat = LatticeCoordinates(basis)
    assert (lat.inv_rows, lat.den) == lattice_inverse_reference(basis)
    assert all(type(x) is int for row in lat.inv_rows for x in row)
    assert type(lat.den) is int and lat.den > 0


@pytest.mark.parametrize("m", [[[1.7, 0], [0, 2.5]], [[Fraction(1, 2)]]])
def test_a_non_integral_entry_is_refused_not_truncated(m):
    with pytest.raises(ValueError, match="^non-integer entry "):
        as_int_matrix(m)


def test_integral_entries_of_any_type_become_ints():
    m = as_int_matrix([[2.0, Fraction(4, 2)], [np.int64(3), -1]])
    assert m.tolist() == [[2, 2], [3, -1]]
    assert all(type(x) is int for row in m.tolist() for x in row)


def test_a_singular_lattice_basis_is_degenerate():
    with pytest.raises(Degenerate, match="^matrix is singular$"):
        LatticeCoordinates([[1, 2], [Fraction(1, 2), 1]])
    with pytest.raises(ValueError):
        LatticeCoordinates([[1, 2]])


# -- equality with the Fraction / object-array references --------------------

def _typed(x):
    """x with the type of every entry, and the shape and dtype of every
    array, so that equal results are equal in type too."""
    if isinstance(x, np.ndarray):
        return ("array", x.shape, x.dtype, [_typed(v) for v in x.flat])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_typed(v) for v in x])
    return (type(x).__name__, x)


@st.composite
def rational_systems(draw):
    """Rational matrices up to 6 x 7, empty ones included; half of them
    with one row a rational combination of the others, and ncols either
    the default or at most the width."""
    n = draw(st.integers(0, 6))
    w = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(small_frac | small_int, min_size=w,
                                  max_size=w), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(small_frac, min_size=n, max_size=n))
        rows[i] = [sum((c * rows[k][j] for k, c in enumerate(coeffs)
                        if k != i), Fraction(0)) for j in range(w)]
    ncols = draw(st.none() | st.integers(0, w))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_row_reduce_matches_fraction_reference(case):
    rows, ncols = case
    assert _typed(row_reduce(rows, ncols)) == \
        _typed(row_reduce_reference(rows, ncols))


@st.composite
def int_matrices(draw):
    """Integer matrices up to 4 x 4, square or not, a third of them with
    a zero row or a repeated row."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(small_int, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    kind = draw(st.integers(0, 2))
    if kind == 1:
        rows[0] = [0] * m
    elif kind == 2 and n > 1:
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_hermite_and_smith_match_object_array_references(m):
    assert _typed(hermite_normal_form(_obj(m))) == \
        _typed(hermite_normal_form_reference(m))
    assert _typed(smith_normal_form(_obj(m))) == \
        _typed(smith_normal_form_reference(m))
    if len(m) == len(m[0]):
        diag = smith_normal_form_reference(m)[0]
        if 0 in diag:
            with pytest.raises(NotInjective):
                polarization_type(_obj(m))
        else:
            assert polarization_type(_obj(m)).diag == tuple(diag)


@st.composite
def alternating_forms(draw):
    """Alternating integer forms of size 2, 4 or 6, a fifth of their
    upper entries zero, so that degenerate forms occur."""
    n = draw(st.sampled_from([2, 4, 6]))
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(-6, 6) | st.just(0))
            e[i][j], e[j][i] = x, -x
    return e


@settings(max_examples=200, deadline=None)
@given(alternating_forms())
def test_symplectic_matches_object_array_reference(e):
    want = symplectic_normal_form_reference(e)
    if want is None:
        with pytest.raises(Degenerate, match="^form is degenerate$"):
            symplectic_normal_form(_obj(e))
        return
    dec = symplectic_normal_form(_obj(e))
    assert _typed((dec.type.diag, dec.basis_change)) == _typed(want)
