"""Cyclotomic integers, finite Heisenberg groups and their Schroedinger
representation, balanced theta sections, and the valuation/twist
exponents of degenerating families."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, prod

import numpy as np
import pytest

from tropab import theta_heisenberg
from tropab.errors import (BadLift, BadModulus, BadTwistPair,
                           EmptyComponent, InconsistentData, TooLarge,
                           Unbounded)
from tropab.exact_linalg import MAX_WINDOW_POINTS, PolarizationType
from tropab.pavings_pwl import (PwAffineFunction,
                                interpolate_on_triangulation, sigma_section)
from tropab.quadform_delaunay import (LatticePolytope, PeriodicPaving,
                                      QuadraticForm)
from tropab.theta_heisenberg import (CyclotomicInteger, DegenerationData,
                                     HeisenbergElement, SchrodingerVector,
                                     balanced_sections,
                                     character_value_exp,
                                     cyclotomic_polynomial, degen_exponents,
                                     enumerate_balanced_set, heis_elements,
                                     heis_mul, heis_pow, kw_decompose,
                                     mult_operator,
                                     normalize_global_scalar,
                                     power_map_kernel_check,
                                     schrodinger_action,
                                     section_exponent_pattern,
                                     section_valuation_profile, twist_data,
                                     twist_bilinear_form)

from oracles import (brute_force_balanced_patterns_rank1,
                     brute_force_minimum, cyclotomic_polynomial_by_division,
                     frac_solve, period_exponents, poly_div_exact)

F = Fraction


def _obj(m):
    return np.array(m, dtype=object)


D3 = PolarizationType((3,))
M6 = 6


# -- cyclotomic arithmetic --------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_exact_division_refuses_a_remainder():
    """The oracle's division raises ArithmeticError, not an assert which
    -O strips, whichever coefficient shows that a pair does not divide."""
    with pytest.raises(ArithmeticError):
        poly_div_exact([1, 0, 1], [1, 1])   # x^2 + 1
    with pytest.raises(ArithmeticError):
        poly_div_exact([1, 1], [1, 2])      # lead 1 / 2
    assert poly_div_exact([-1, 0, 1], [1, 1]) == [-1, 1]


def test_the_cyclotomic_degree_is_euler_phi():
    for m in range(1, 301):
        phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_polynomial(m)) - 1 == phi


def test_the_radical_form_matches_the_recursive_division():
    for m in range(1, 301):
        assert cyclotomic_polynomial(m) == \
            cyclotomic_polynomial_by_division(m), m


@pytest.mark.parametrize("m", [100_003, 10 ** 40, 2 ** 127 - 1])
def test_a_cyclotomic_polynomial_of_too_high_degree_is_refused(m):
    """The prime 100003 has phi = 100002, just over the limit; 10^40 has
    small primes only; the prime 2^127 - 1 is refused once trial
    division passes the limit, not after a search to its square root."""
    with pytest.raises(TooLarge) as e:
        CyclotomicInteger.one(m)
    assert e.value.field == "modulus"


def test_zeta_relations():
    z = CyclotomicInteger.zeta_power(6, 1)
    one = CyclotomicInteger.one(6)
    assert z * z * z == -one
    assert (z * z - z + one).is_zero()
    # full cycle and exponent reduction
    assert CyclotomicInteger.zeta_power(6, 7) == z
    acc = one
    for _ in range(6):
        acc = acc * z
    assert acc == one


def test_cyclotomic_ring_ops():
    a = CyclotomicInteger(5, (1, 2, 0, 0))
    b = CyclotomicInteger(5, (0, 1, 1, 0))
    assert a + b - b == a
    assert a * b == b * a
    assert 3 * a == a + a + a
    assert (a - a).is_zero()


# -- Heisenberg group -------------------------------------------------------

def test_group_order_and_identity():
    els = list(heis_elements(D3, M6))
    assert len(els) == M6 * 3 * 3
    ident = HeisenbergElement.identity(D3, M6)
    for g in els[:40]:
        assert heis_mul(g, ident, D3, M6) == g
        assert heis_mul(ident, g, D3, M6) == g
        assert heis_mul(g, g.inverse(), D3, M6) == ident
        assert heis_mul(g.inverse(), g, D3, M6) == ident


def test_commutator_is_the_pairing():
    x = HeisenbergElement(0, (1,), (0,), D3, M6)
    y = HeisenbergElement(0, (0,), (1,), D3, M6)
    xy = heis_mul(x, y, D3, M6)
    yx_inv = heis_mul(x.inverse(), y.inverse(), D3, M6)
    comm = heis_mul(xy, yx_inv, D3, M6)
    assert comm == HeisenbergElement(2, (0,), (0,), D3, M6)


def test_modulus_constraint():
    with pytest.raises(BadModulus):
        HeisenbergElement(0, (0,), (0,), D3, 3)
    with pytest.raises(BadModulus):
        heis_elements(PolarizationType((2, 2)), 6).__next__()


def test_power_map_kernel():
    assert power_map_kernel_check(D3, M6)
    assert power_map_kernel_check(PolarizationType((2,)), 4)


def test_power_map_kernel_check_powers_every_element_once(monkeypatch):
    """delta = (6, 6), M = 12: all 12 * 6^4 = 15552 elements, none
    sampled away and none powered twice."""
    delta, m = PolarizationType((6, 6)), 12
    seen = Counter()

    def spy(g, n, *args):
        seen[g] += 1
        return heis_pow(g, n, *args)
    monkeypatch.setattr(theta_heisenberg, "heis_pow", spy)
    assert power_map_kernel_check(delta, m)
    assert len(seen) == 15552 and set(seen.values()) == {1}
    assert set(seen) == set(heis_elements(delta, m))


def test_power_map_kernel_check_refuses_a_group_over_the_limit(monkeypatch):
    """delta = (10, 10), M = 20: 20 * 10^4 = 200 000 elements, more than
    MAX_WINDOW_POINTS, refused before any element is powered."""
    def spy(*args):
        raise AssertionError("an element was powered")
    monkeypatch.setattr(theta_heisenberg, "heis_pow", spy)
    with pytest.raises(TooLarge) as err:
        power_map_kernel_check(PolarizationType((10, 10)), 20)
    assert err.value.field == "delta"


# -- Schroedinger representation --------------------------------------------

@pytest.mark.parametrize("diag,m", [((2,), 4), ((1, 3), 6), ((2, 2), 4)])
def test_heis_pow_matches_repeated_products(diag, m):
    delta = PolarizationType(diag)
    for g in heis_elements(delta, m):
        acc = HeisenbergElement.identity(delta, m)
        for n in range(2 * m + 1):
            assert heis_pow(g, n, delta, m) == acc
            acc = heis_mul(acc, g, delta, m)


def test_representation_is_a_homomorphism():
    basis = [SchrodingerVector.delta_function(D3, M6, (k,))
             for k in range(3)]
    sample = [HeisenbergElement(t, (a,), (b,), D3, M6)
              for t in (0, 1, 5) for a in (0, 2) for b in (1, 2)]
    for x in sample:
        for y in sample:
            xy = heis_mul(x, y, D3, M6)
            for v in basis:
                assert schrodinger_action(xy, v) == \
                    schrodinger_action(x, schrodinger_action(y, v))


def test_center_acts_by_scalars():
    z = HeisenbergElement(1, (0,), (0,), D3, M6)
    v = SchrodingerVector(D3, M6, {(0,): CyclotomicInteger.one(6),
                                   (2,): CyclotomicInteger.zeta_power(6, 4)})
    assert schrodinger_action(z, v) == v.scaled(
        CyclotomicInteger.zeta_power(6, 1))


def test_heisenberg_relation_exhaustive_small():
    """T_b S_g = zeta^{<b, w(g)>} S_g T_b on every basis vector."""
    d2 = PolarizationType((2,))
    m = 4
    basis = [SchrodingerVector.delta_function(d2, m, (k,)) for k in range(2)]
    for g in heis_elements(d2, m):
        for bp in product(range(2), repeat=1):
            e = character_value_exp(g.w_image(), bp, d2, m)
            for v in basis:
                lhs = mult_operator(bp, schrodinger_action(g, v))
                rhs = schrodinger_action(g, mult_operator(bp, v)).scaled(
                    CyclotomicInteger.zeta_power(m, e))
                assert lhs == rhs


def test_kw_decomposition_lines():
    lines = kw_decompose(D3, M6)
    assert [idx for idx, _ in lines] == [(0,), (1,), (2,)]
    for idx, vecs in lines:
        assert len(vecs) == 1
        # joint eigenvector of every multiplication operator
        for bp in product(range(3), repeat=1):
            e = character_value_exp(idx, bp, D3, M6)
            assert mult_operator(bp, vecs[0]) == vecs[0].scaled(
                CyclotomicInteger.zeta_power(M6, e))


# -- balanced sections ------------------------------------------------------

def _standard_lifts(delta, m, t_exps=None):
    classes = sorted(product(*[range(d) for d in delta.diag]))
    out = {}
    for i, alpha in enumerate(classes):
        t = 0 if t_exps is None else t_exps[i]
        out[alpha] = HeisenbergElement(t, tuple(-x for x in alpha),
                                       (0,) * len(alpha), delta, m)
    return out


def test_balanced_section_from_standard_lifts():
    sec = balanced_sections(D3, M6, (0,), _standard_lifts(D3, M6))
    assert sorted(sec.coeffs) == [(0,), (1,), (2,)]
    assert section_exponent_pattern(sec) == {(0,): 0, (1,): 0, (2,): 0}


@pytest.mark.parametrize("m", [2, 6, 12, 30, 42, 60])
def test_the_exponent_pattern_reads_every_zeta_power(m):
    """Every zeta^e, e < M, read back as e: M / 2 indices, each section
    taking half of the exponents, in reverse order."""
    delta = PolarizationType((m // 2,))
    for half in (0, m // 2):
        want = {(i,): half + m // 2 - 1 - i for i in range(m // 2)}
        sec = SchrodingerVector(delta, m, {
            k: CyclotomicInteger.zeta_power(m, e) for k, e in want.items()})
        assert section_exponent_pattern(sec) == want


def test_the_exponent_pattern_reads_the_last_power_of_a_large_modulus():
    """zeta^2309 at M = 2310 (phi(M) = 480): one pass over the powers,
    not one reduction of x^e per exponent."""
    sec = SchrodingerVector(PolarizationType((1,)), 2310, {
        (0,): CyclotomicInteger.zeta_power(2310, 2309)})
    assert section_exponent_pattern(sec) == {(0,): 2309}


@pytest.mark.parametrize("bad", [
    CyclotomicInteger(6, [1, 1]), CyclotomicInteger(6, [2]),
    CyclotomicInteger(12, [1])], ids=["one-plus-zeta", "two", "modulus"])
def test_a_coefficient_that_is_no_root_of_unity_is_refused(bad):
    sec = SchrodingerVector(D3, M6, {
        (0,): CyclotomicInteger.zeta_power(M6, 5), (1,): bad,
        (2,): CyclotomicInteger(M6, [0, 1, 1])})
    with pytest.raises(ValueError,
                       match=r"^coefficient at \(1,\) is not a root of "
                             r"unity$"):
        section_exponent_pattern(sec)


def test_balanced_section_rejects_bad_lift():
    lifts = _standard_lifts(D3, M6)
    lifts[(1,)] = HeisenbergElement(0, (0,), (0,), D3, M6)
    with pytest.raises(BadLift) as err:
        balanced_sections(D3, M6, (0,), lifts)
    assert err.value.field == "lifts"


def test_enumeration_matches_brute_force():
    for delta, m in [(D3, M6), (PolarizationType((2,)), 4)]:
        got = {tuple(section_exponent_pattern(
            normalize_global_scalar(v))[k]
            for k in sorted(v.coeffs)) for v in enumerate_balanced_set(
                delta, m)}
        want = brute_force_balanced_patterns_rank1(delta.diag, m)
        assert got == want
        assert len(got) == m ** (delta.degree - 1)


@pytest.mark.parametrize("m", [1, 2, 12, 30, 105, 210])
def test_the_zeta_walk_matches_each_power(m):
    """zeta^(e+1) = x zeta^e, reduced by the constructor, is the reduction
    of x^e by long division, for every e < M."""
    assert list(theta_heisenberg._zeta_powers(m)) == [
        CyclotomicInteger.zeta_power(m, e) for e in range(m)]


@pytest.mark.parametrize("diag, m", [((1,), 30), ((3,), 6), ((2,), 28),
                                     ((2, 2), 4), ((1, 3), 6)])
def test_the_balanced_set_takes_its_powers_from_the_walk(diag, m):
    """The walk changes no section: each is the zeta_power of its
    pattern's exponents, in pattern order."""
    delta = PolarizationType(diag)
    got = enumerate_balanced_set(delta, m)
    want = [{k: CyclotomicInteger.zeta_power(m, e) for k, e in pattern}
            for pattern in theta_heisenberg._balanced_patterns(delta, m)]
    assert [v.coeffs for v in got] == want


def test_enumeration_bound():
    with pytest.raises(TooLarge) as err:
        enumerate_balanced_set(PolarizationType((3, 3)), 6)
    assert err.value.field == "delta"


# -- degeneration exponents -------------------------------------------------

def test_degeneration_data_consistency():
    q = QuadraticForm(_obj([[1]]))
    good = DegenerationData(q, _obj([[2]]), PolarizationType((1,)),
                            _obj([[0]]))
    assert degen_exponents(good, (2,), (3,)) == (F(4), F(12))
    with pytest.raises(InconsistentData):
        DegenerationData(q, _obj([[3]]), PolarizationType((1,)),
                         _obj([[0]]))
    with pytest.raises(BadTwistPair):
        DegenerationData(q, _obj([[2]]), PolarizationType((1,)),
                         _obj([[1]]))


def test_quadratic_relation_of_exponents():
    """a(l + m) = b(l, phi m) + a(l) + a(m)."""
    d = PolarizationType((1, 2))
    q = QuadraticForm(_obj([[1, 1], [1, 4]]))
    data = DegenerationData(q, _obj([[2, 1], [2, 4]]), d,
                            _obj([[0, 1], [-1, 0]]))
    dm = _obj([[1, 0], [0, 2]])
    for lam in [(1, 0), (0, 1), (2, -1)]:
        for mu in [(1, 1), (-1, 2)]:
            s = tuple(a + b for a, b in zip(lam, mu))
            a_s = degen_exponents(data, s, (0, 0))[0]
            a_l = degen_exponents(data, lam, (0, 0))[0]
            a_m = degen_exponents(data, mu, (0, 0))[0]
            phi_mu = tuple(int((dm @ _obj([[x] for x in mu]))[i, 0])
                           for i in range(2))
            b_lm = degen_exponents(data, lam, phi_mu)[1]
            assert a_s == b_lm + a_l + a_m


def test_twist_default_lift_and_mod2_relation():
    d = PolarizationType((1, 2))
    q = QuadraticForm(_obj([[1, 1], [1, 4]]))
    data = DegenerationData(q, _obj([[2, 1], [2, 4]]), d,
                            _obj([[0, 3], [-3, 0]]))
    # default S' is the symmetric mod-2 lift with zero diagonal
    assert (data.s_prime == _obj([[0, 1], [1, 0]])).all()
    dm = _obj([[1, 0], [0, 2]])
    for lam in [(1, 0), (0, 1), (1, 1)]:
        for mu in [(1, 1), (2, -1)]:
            s = tuple(a + b for a, b in zip(lam, mu))
            a_s = twist_data(data, s, (0, 0))[0]
            a_l = twist_data(data, lam, (0, 0))[0]
            a_m = twist_data(data, mu, (0, 0))[0]
            assert (a_s - a_l - a_m) % 2 == twist_bilinear_form(
                data, lam, mu)
            # chi's bilinear form is the twist pairing taken mod 2
            phi_mu = tuple(int((dm @ _obj([[x] for x in mu]))[i, 0])
                           for i in range(2))
            b_twist = twist_data(data, lam, phi_mu)[1]
            assert b_twist % 2 == twist_bilinear_form(data, lam, mu)


def test_explicit_s_prime_validation():
    q = QuadraticForm(_obj([[1, 1], [1, 4]]))
    d = PolarizationType((1, 2))
    pc = _obj([[2, 1], [2, 4]])
    sx = _obj([[0, 1], [-1, 0]])
    ok = DegenerationData(q, pc, d, sx, s_prime=_obj([[2, 1], [1, -2]]))
    assert (ok.s_prime == _obj([[2, 1], [1, -2]])).all()
    with pytest.raises(BadTwistPair):
        DegenerationData(q, pc, d, sx, s_prime=_obj([[0, 2], [2, 0]]))
    with pytest.raises(BadTwistPair):
        DegenerationData(q, pc, d, sx, s_prime=_obj([[0, 1], [3, 0]]))


# -- valuation profiles -----------------------------------------------------

def test_valuation_profile_three_torsion():
    sec = balanced_sections(D3, M6, (0,), _standard_lifts(D3, M6))
    phi = sigma_section(QuadraticForm(_obj([[1]])), _obj([[1]]), 4)
    prof = section_valuation_profile(sec, phi, _obj([[3]]), 3)
    assert prof == {(0,): F(0), (1,): F(1, 2), (2,): F(1, 2)}


def test_valuation_profile_shift_invariance():
    # recentering theta_0 permutes the components but not the profile
    phi = sigma_section(QuadraticForm(_obj([[1]])), _obj([[1]]), 4)
    profs = []
    for j in range(3):
        sec = balanced_sections(D3, M6, (j,), _standard_lifts(D3, M6))
        profs.append(section_valuation_profile(sec, phi, _obj([[3]]), 3))
    assert profs[0] == profs[1] == profs[2]


def test_valuation_profile_requires_full_support():
    sec = SchrodingerVector(D3, M6, {(0,): CyclotomicInteger.one(6)})
    phi = sigma_section(QuadraticForm(_obj([[1]])), _obj([[1]]), 4)
    with pytest.raises(EmptyComponent):
        section_valuation_profile(sec, phi, _obj([[3]]), 3)


def _full_support(delta):
    m = 2 * delta[-1]
    return SchrodingerVector(
        PolarizationType(delta), m,
        {idx: CyclotomicInteger.one(m)
         for idx in product(*[range(d) for d in delta])})


@pytest.mark.parametrize("qm, basis, window, phi_map, delta", [
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4, [[2, 0], [0, 2]], (2, 2)),
    ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4, [[3, 1], [0, 2]], (1, 6)),
    ([[14, -25], [-25, 45]], [[1, 0], [0, 1]], 5, [[2, 0], [0, 2]], (2, 2)),
    ([[2, 17], [17, 147]], [[1, 0], [0, 1]], 11, [[1, 0], [0, 3]], (1, 3)),
    ([[4, -1, -2], [-1, 5, -1], [-2, -1, 6]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3,
     [[1, 0, 0], [0, 1, 0], [0, 0, 3]], (1, 1, 3)),
], ids=["coarse-basis", "coarse-basis-skew-map", "skewed", "shear-8",
        "rank-3"])
def test_valuation_profile_matches_brute_force(qm, basis, window, phi_map,
                                               delta):
    """The coarse basis has n = 2, so each class splits into 4 cosets of
    periods; on the skewed forms the minima lie far from the class
    representatives, and in rank 3 rounding the real minimiser misses
    two of them.  The profile's window changes nothing."""
    phi = sigma_section(QuadraticForm(_obj(qm)), _obj(basis), window)
    sec = _full_support(delta)
    prof = section_valuation_profile(sec, phi, _obj(phi_map), 1)
    cols = [list(c) for c in zip(*phi_map)]
    assert prof == {rep: brute_force_minimum(phi, rep, cols, (0,) * len(qm))
                    for rep in prof}
    assert len(prof) == prod(phi_map[i][i] for i in range(len(qm)))
    for w in (0, 3, 9):
        assert section_valuation_profile(sec, phi, _obj(phi_map), w) == prof


def test_valuation_profile_of_a_phi_with_a_periodic_part():
    """phi = x^2 / 2 + 3 (x mod 2) has periods 2Z only, so 3, the step of
    the classes, is no period: each class splits into the cosets of
    6Z."""
    line = PeriodicPaving(1, _obj([[2]]), [LatticePolytope(((0,), (1,))),
                                           LatticePolytope(((1,), (2,)))], 3)
    phi = interpolate_on_triangulation(
        {(x,): F(x * x, 2) + 3 * (x % 2) for x in range(-6, 7)}, line)
    sec = balanced_sections(D3, M6, (0,), _standard_lifts(D3, M6))
    prof = section_valuation_profile(sec, phi, _obj([[3]]), 3)
    assert prof == {(rep,): brute_force_minimum(phi, (rep,), [[3]], (0,))
                    for rep in range(3)}
    assert prof == {(0,): 0, (1,): 2, (2,): 2}


@pytest.mark.parametrize("values", [
    {(x,): -F(x * x, 2) for x in range(-4, 5)},
    {(x,): F(x) for x in range(-4, 5)},
], ids=["concave", "affine"])
def test_valuation_profile_refuses_a_phi_without_growth(values):
    line = PeriodicPaving(1, _obj([[1]]), [LatticePolytope(((0,), (1,)))], 3)
    phi = interpolate_on_triangulation(values, line)
    sec = balanced_sections(D3, M6, (0,), _standard_lifts(D3, M6))
    with pytest.raises(Unbounded):
        section_valuation_profile(sec, phi, _obj([[3]]), 3)


@pytest.mark.parametrize("phi_map, delta", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], (1, 1, 2)),
], ids=["identity", "diag-2"])
def test_valuation_profile_takes_cosets_of_the_preimage_lattice(phi_map,
                                                                delta):
    """With period basis diag(1, 1, 100) the period lattice has exponent
    n = 100, but K = {k : phi_map k in it} has index at most 100, so a
    class splits into at most 100 cosets, not n^3 = 10^6 (which is over
    MAX_WINDOW_POINTS).  Every lattice point is a vertex of the cubes of
    I3, so sigma = |x|^2 / 2 there.  phi_map Z^3 contains 2 Z^3, so a
    minimiser of |x|^2 over a class has entries in [-1, 1] (else a step
    of 2 shortens it): scanning [-3, 3]^3 is a brute force."""
    phi = sigma_section(QuadraticForm(_obj(np.eye(3, dtype=int))),
                        _obj([[1, 0, 0], [0, 1, 0], [0, 0, 100]]), 2)
    prof = section_valuation_profile(_full_support(delta), phi,
                                     _obj(phi_map), 1)
    assert len(prof) == prod(delta)
    for rep, got in prof.items():
        assert got == min(
            F(sum(v * v for v in x), 2)
            for x in product(range(-3, 4), repeat=3)
            if all(c.denominator == 1 for c in
                   frac_solve(phi_map, [a - b for a, b in zip(x, rep)])))


HEX_SIGMA = sigma_section(QuadraticForm(_obj([[2, 1], [1, 2]])),
                          _obj([[1, 0], [0, 1]]), 4)


@pytest.mark.parametrize("phi_map, delta", [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[3, 0], [0, 1]], (1, 3)),
], ids=["diag-2-3", "diag-3-1"])
def test_valuation_profile_maps_classes_to_indices_one_to_one(phi_map,
                                                               delta):
    """A section without one H(delta) index is refused on one class,
    and on a different class for each index left out: every class has
    an index of its own, though phi_map is not diag(delta)."""
    full = _full_support(delta)
    classes = section_valuation_profile(full, HEX_SIGMA, _obj(phi_map), 1)
    assert len(classes) == len(full.coeffs)
    named = set()
    for idx in full.coeffs:
        holed = SchrodingerVector(full.delta, full.modulus,
                                  {k: c for k, c in full.coeffs.items()
                                   if k != idx})
        with pytest.raises(EmptyComponent) as err:
            section_valuation_profile(holed, HEX_SIGMA, _obj(phi_map), 1)
        named.add(str(err.value))
    assert named == {"class %r has no section component" % (rep,)
                     for rep in classes}


def test_valuation_profile_refuses_a_delta_other_than_the_smith_type():
    """diag(2, 3) has Smith type (1, 6), so a section of H((1, 3)) has
    too few indices for its six classes."""
    with pytest.raises(InconsistentData) as err:
        section_valuation_profile(_full_support((1, 3)), HEX_SIGMA,
                                  _obj([[2, 0], [0, 3]]), 1)
    assert err.value.field == "delta"


def test_valuation_profile_refuses_too_many_cosets():
    """The segment [0, N] with period N = MAX_WINDOW_POINTS + 1 and
    phi = x^2 / 2 at its vertices: K = N Z has more than
    MAX_WINDOW_POINTS cosets."""
    n = MAX_WINDOW_POINTS + 1
    line = PeriodicPaving(1, _obj([[n]]), [LatticePolytope(((0,), (n,)))], 2)
    phi = PwAffineFunction(line, [((F(n, 2),), 0)], [_obj([[1]])], [[0]])
    with pytest.raises(TooLarge) as err:
        section_valuation_profile(_full_support((1,)), phi, _obj([[1]]), 1)
    assert err.value.field == "period_basis"


# -- exponents at generic alpha ---------------------------------------------

# (d, phi_check, S_xi, S'): Q = phi_check d / 2, S_xi != 0, and S' either
# the default mod-2 lift (None) or an explicit one
GENERIC_CASES = [
    ((1, 3), [[2, 1], [3, 4]], [[0, 5], [-5, 0]], None),
    ((2, 4), [[1, 1], [2, 3]], [[0, -3], [3, 0]], None),
    ((2, 4), [[1, 1], [2, 3]], [[0, -3], [3, 0]], [[2, 1], [1, 4]]),
]


def _generic_data(d, pc, sx, sp):
    q = [[F(pc[i][j] * d[j], 2) for j in range(2)] for i in range(2)]
    data = DegenerationData(QuadraticForm(_obj(q)), _obj(pc),
                            PolarizationType(d), _obj(sx),
                            None if sp is None else _obj(sp))
    return q, data


def test_exponents_pinned_at_generic_alpha():
    _, a = _generic_data(*GENERIC_CASES[0])
    assert degen_exponents(a, (1, -2), (1, 1)) == (F(19), F(-11))
    assert twist_data(a, (1, -2), (1, 1)) == (F(0), F(1, 3))
    assert twist_bilinear_form(a, (1, -2), (1, 1)) == F(1)
    _, b = _generic_data(*GENERIC_CASES[1])
    assert degen_exponents(b, (1, 1), (1, 1)) == (F(11), F(7))
    assert twist_data(b, (1, 1), (1, 1)) == (F(1), F(5, 4))
    assert twist_bilinear_form(b, (1, 1), (1, 0)) == F(1)


@pytest.mark.parametrize("case", GENERIC_CASES, ids=["d13", "d24", "d24-S'"])
def test_exponents_match_fraction_oracle(case):
    q, data = _generic_data(*case)
    d, sx = case[0], case[2]
    sp = data.s_prime.tolist()
    for lam in product(range(-2, 3), repeat=2):
        for alpha in product(range(-3, 4), repeat=2):
            a, b, at, bt, chi = period_exponents(q, d, sx, sp, lam, alpha,
                                                 alpha)
            assert degen_exponents(data, lam, alpha) == (a, b)
            assert twist_data(data, lam, alpha) == (at, bt)
            assert twist_bilinear_form(data, lam, alpha) == chi


def test_exponents_reject_vectors_of_the_wrong_length():
    _, data = _generic_data(*GENERIC_CASES[0])
    for fn in (degen_exponents, twist_data, twist_bilinear_form):
        with pytest.raises(ValueError):
            fn(data, (1, 2, 3), (1, 1))
        with pytest.raises(ValueError):
            fn(data, (1, 2), (1,))


# -- mismatched groups and rings --------------------------------------------

def test_cyclotomic_arithmetic_rejects_mixed_orders():
    a, b = CyclotomicInteger(4, [1]), CyclotomicInteger(6, [1])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()


def test_heis_mul_rejects_elements_of_another_group():
    d2 = PolarizationType((2,))
    x = HeisenbergElement(1, (1,), (0,), d2, 4)
    y = HeisenbergElement(0, (0,), (1,), d2, 4)
    with pytest.raises(ValueError):
        heis_mul(x, y, d2, 8)
    other = HeisenbergElement(0, (0,), (1,), PolarizationType((1,)), 4)
    with pytest.raises(ValueError):
        heis_mul(x, other, d2, 4)


def test_schrodinger_action_rejects_a_vector_of_another_group():
    d2 = PolarizationType((2,))
    g = HeisenbergElement(1, (1,), (0,), d2, 4)
    with pytest.raises(ValueError):
        schrodinger_action(g, SchrodingerVector.delta_function(d2, 8, (0,)))
    with pytest.raises(ValueError):
        schrodinger_action(g, SchrodingerVector.delta_function(D3, 6, (0,)))
